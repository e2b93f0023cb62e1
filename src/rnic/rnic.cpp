#include "rnic/rnic.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace prdma::rnic {

using net::Packet;
using net::WireOp;
using sim::SimTime;

Rnic::Rnic(sim::Simulator& sim, sim::Rng& rng, net::Fabric& fabric,
           mem::NodeMemory& memory, net::NodeId id, RnicParams params)
    : sim_(sim),
      rng_(rng),
      fabric_(fabric),
      mem_(memory),
      id_(id),
      params_(params) {
  fabric_.register_node(id_, sim_, [this](Packet p) { on_packet(std::move(p)); });
}

Rnic::~Rnic() { fabric_.unregister_node(id_); }

// --------------------------------------------------------------- control

Qp& Rnic::create_qp(Transport transport, Cq& send_cq, Cq& recv_cq) {
  auto qp = std::make_unique<Qp>();
  qp->qpn = next_qpn_++;
  qp->transport = transport;
  qp->send_cq = &send_cq;
  qp->recv_cq = &recv_cq;
  Qp& ref = *qp;
  qps_[ref.qpn] = std::move(qp);
  return ref;
}

Qp* Rnic::find_qp(std::uint32_t qpn) {
  const auto it = qps_.find(qpn);
  return it == qps_.end() ? nullptr : it->second.get();
}

void Rnic::connect(Qp& qp, net::NodeId peer, std::uint32_t peer_qpn) {
  qp.peer = peer;
  qp.peer_qpn = peer_qpn;
  qp.connected = true;
}

// ------------------------------------------------------------ data posts

void Rnic::post_recv(Qp& qp, std::uint64_t addr, std::uint64_t len,
                     std::uint64_t wr_id) {
  qp.recv_queue.push_back(RecvWqe{addr, len, wr_id});
  // Serve packets that beat the recv post (RNR queue).
  while (!qp.rnr_queue.empty() && !qp.recv_queue.empty()) {
    Packet p = std::move(qp.rnr_queue.front());
    qp.rnr_queue.pop_front();
    deliver_send(qp, std::move(p));
  }
}

void Rnic::post_send(Qp& qp, std::uint64_t local_addr, std::uint64_t len,
                     std::uint64_t wr_id, std::optional<std::uint32_t> imm) {
  if (qp.transport == Transport::kUD && len > params_.ud_mtu) {
    throw std::invalid_argument("UD send exceeds MTU");
  }
  Packet p;
  p.src = id_;
  p.dst = qp.peer;
  p.src_qp = qp.qpn;
  p.dst_qp = qp.peer_qpn;
  p.op = imm ? WireOp::kSendImm : WireOp::kSend;
  p.wr_id = wr_id;
  p.length = len;
  if (imm) {
    p.imm = *imm;
    p.has_imm = true;
  }
  p.payload = mem_.read_payload(local_addr, len);
  transmit_data(std::move(p));
}

void Rnic::post_write(Qp& qp, std::uint64_t local_addr, std::uint64_t len,
                      std::uint64_t remote_addr, std::uint64_t wr_id,
                      std::optional<std::uint32_t> imm) {
  if (qp.transport == Transport::kUD) {
    throw std::invalid_argument("RDMA write is not supported on UD");
  }
  Packet p;
  p.src = id_;
  p.dst = qp.peer;
  p.src_qp = qp.qpn;
  p.dst_qp = qp.peer_qpn;
  p.op = imm ? WireOp::kWriteImm : WireOp::kWrite;
  p.wr_id = wr_id;
  p.remote_addr = remote_addr;
  p.length = len;
  if (imm) {
    p.imm = *imm;
    p.has_imm = true;
  }
  p.payload = mem_.read_payload(local_addr, len);
  transmit_data(std::move(p));
}

void Rnic::post_read(Qp& qp, std::uint64_t remote_addr, std::uint64_t len,
                     std::uint64_t local_addr, std::uint64_t wr_id) {
  if (qp.transport != Transport::kRC) {
    throw std::invalid_argument("RDMA read requires RC");
  }
  Packet p;
  p.src = id_;
  p.dst = qp.peer;
  p.src_qp = qp.qpn;
  p.dst_qp = qp.peer_qpn;
  p.op = WireOp::kReadReq;
  p.wr_id = wr_id;
  p.remote_addr = remote_addr;
  p.length = len;
  p.local_addr = local_addr;
  transmit_data(std::move(p));
}

void Rnic::post_wflush(Qp& qp, std::uint64_t remote_addr, std::uint64_t len,
                       std::uint64_t wr_id) {
  if (qp.transport != Transport::kRC) {
    throw std::invalid_argument("WFlush requires RC (§4.1.1)");
  }
  Packet p;
  p.src = id_;
  p.dst = qp.peer;
  p.src_qp = qp.qpn;
  p.dst_qp = qp.peer_qpn;
  p.op = WireOp::kWFlushReq;
  p.wr_id = wr_id;
  p.remote_addr = remote_addr;
  p.length = len;
  transmit_data(std::move(p));
}

void Rnic::post_sflush(Qp& qp, std::uint64_t pm_dest_addr, std::uint64_t len,
                       std::uint64_t wr_id) {
  if (qp.transport != Transport::kRC) {
    throw std::invalid_argument("SFlush requires RC (§4.1.1)");
  }
  Packet p;
  p.src = id_;
  p.dst = qp.peer;
  p.src_qp = qp.qpn;
  p.dst_qp = qp.peer_qpn;
  p.op = WireOp::kSFlushReq;
  p.wr_id = wr_id;
  p.remote_addr = pm_dest_addr;
  p.length = len;
  transmit_data(std::move(p));
}

// ----------------------------------------------------------- TX pipeline

sim::SimTime Rnic::transmit_data(Packet p) {
  Qp* qp = find_qp(p.src_qp);
  if (!alive_ || qp == nullptr || !qp->connected || qp->in_error) {
    // Posting on a dead/torn-down/errored QP: complete with an error
    // so the caller does not hang (mirrors ibv_post_send on a QP in
    // error).
    if (qp != nullptr && qp->send_cq != nullptr) {
      Wc wc;
      wc.wr_id = p.wr_id;
      wc.status = WcStatus::kFlushed;
      wc.op = p.op;
      wc.qpn = p.src_qp;
      qp->send_cq->push(wc);
    }
    return sim_.now();
  }

  const bool reliable = qp->transport == Transport::kRC;
  if (reliable) {
    p.seq = qp->next_seq++;
  }

  // TX pipeline: per-packet occupancy is the pipeline slot plus the
  // payload's PCIe transfer; the PCIe setup latency is pipelined (it
  // delays this packet but does not block successors).
  const SimTime tx_begin = std::max(sim_.now(), tx_busy_until_);
  SimTime occupancy = params_.tx_process;
  SimTime extra_latency = 0;
  if (net::carries_payload(p.op)) {
    occupancy += sim::transfer_time(p.length, params_.pcie_bw_bytes_per_s);
    extra_latency = params_.pcie_setup;
  }
  tx_busy_until_ = tx_begin + occupancy;
  const SimTime ready = tx_begin + occupancy + extra_latency;

  if (reliable) {
    auto& pending = qp->unacked[p.seq];
    pending.packet = p;
    pending.attempts = 1;
    arm_retransmit(qp->qpn, p.seq);
  }

  const std::uint64_t epoch = epoch_;
  sim_.schedule_at(ready, [this, epoch, p]() mutable {
    if (epoch != epoch_ || !alive_) return;
    fabric_.send(std::move(p));
  });

  if (!reliable) {
    // UC/UD complete locally once the packet is on the wire.
    Wc wc;
    wc.wr_id = p.wr_id;
    wc.op = p.op;
    wc.qpn = qp->qpn;
    wc.byte_len = p.length;
    Cq* cq = qp->send_cq;
    const std::uint64_t e2 = epoch_;
    sim_.schedule_at(ready, [this, e2, cq, wc] {
      if (e2 != epoch_ || !alive_) return;
      cq->push(wc);
    });
  }
  return ready;
}

void Rnic::transmit_control(Packet p) {
  const SimTime tx_begin = std::max(sim_.now(), tx_busy_until_);
  SimTime occupancy = params_.tx_process;
  SimTime extra_latency = 0;
  if (net::carries_payload(p.op)) {
    occupancy += sim::transfer_time(p.length, params_.pcie_bw_bytes_per_s);
    extra_latency = params_.pcie_setup;
  }
  tx_busy_until_ = tx_begin + occupancy;
  const SimTime ready = tx_begin + occupancy + extra_latency;
  const std::uint64_t epoch = epoch_;
  sim_.schedule_at(ready, [this, epoch, p]() mutable {
    if (epoch != epoch_ || !alive_) return;
    fabric_.send(std::move(p));
  });
}

void Rnic::arm_retransmit(std::uint32_t qpn, std::uint64_t seq) {
  // One timeout per posted packet, armed at the base interval. On a
  // lossless fabric the packet is long ACKed by its deadline, so the
  // entry is dropped from the FIFO without ever firing. Go-back-N,
  // backoff and escalation only engage when a timeout fires with its
  // sequence still unacknowledged.
  const SimTime deadline = sim_.now() + params_.retransmit_interval;
  assert((timeouts_head_ == timeouts_.size() ||
          timeouts_.back().deadline <= deadline) &&
         "retransmit_interval changed while timeouts were pending");
  timeouts_.push_back(Timeout{deadline, sim_.reserve_seq(), epoch_, seq, qpn});
  if (!timeout_armed_) arm_next_timeout();
}

bool Rnic::timeout_dead(const Timeout& t) {
  if (t.epoch != epoch_ || !alive_) return true;
  const Qp* qp = find_qp(t.qpn);
  return qp == nullptr || qp->in_error || !qp->unacked.contains(t.seq);
}

void Rnic::arm_next_timeout() {
  while (timeouts_head_ < timeouts_.size() &&
         timeout_dead(timeouts_[timeouts_head_])) {
    ++timeouts_head_;
  }
  if (timeouts_head_ == timeouts_.size()) {
    timeouts_.clear();
    timeouts_head_ = 0;
    return;
  }
  // Recycle the consumed prefix once it outweighs the live tail, so
  // each entry is moved O(1) times on average.
  if (timeouts_head_ >= 64 && 2 * timeouts_head_ >= timeouts_.size()) {
    const auto head = static_cast<std::ptrdiff_t>(timeouts_head_);
    timeouts_.erase(timeouts_.begin(), timeouts_.begin() + head);
    timeouts_head_ = 0;
  }
  const Timeout& t = timeouts_[timeouts_head_];
  timeout_armed_ = true;
  sim_.schedule_reserved(t.deadline, t.key_seq, [this] { fire_timeout(); });
}

void Rnic::fire_timeout() {
  const Timeout t = timeouts_[timeouts_head_++];
  timeout_armed_ = false;
  on_retransmit_timeout(t.epoch, t.qpn, t.seq);
  // A non-head re-arm inside the body has already armed the next entry.
  if (!timeout_armed_) arm_next_timeout();
}

sim::SimTime Rnic::backoff_delay(int timeouts) const {
  double d = static_cast<double>(params_.retransmit_interval);
  const double cap = static_cast<double>(
      std::max(params_.retransmit_cap, params_.retransmit_interval));
  const double backoff = std::max(params_.retransmit_backoff, 1.0);
  for (int i = 0; i < timeouts && d < cap; ++i) d *= backoff;
  return static_cast<sim::SimTime>(std::min(d, cap));
}

void Rnic::fail_qp(Qp& qp) {
  qp.in_error = true;
  bool head = true;
  for (auto& [seq, wr] : qp.unacked) {
    if (qp.send_cq != nullptr) {
      Wc wc;
      wc.wr_id = wr.packet.wr_id;
      wc.status = head ? WcStatus::kRetryExceeded : WcStatus::kFlushed;
      wc.op = wr.packet.op;
      wc.qpn = qp.qpn;
      qp.send_cq->push(wc);
    }
    head = false;
  }
  qp.unacked.clear();
}

void Rnic::arm_retransmit_after(std::uint32_t qpn, std::uint64_t seq,
                                sim::SimTime delay) {
  const std::uint64_t epoch = epoch_;
  sim_.schedule(delay, [this, epoch, qpn, seq] {
    on_retransmit_timeout(epoch, qpn, seq);
  });
}

void Rnic::on_retransmit_timeout(std::uint64_t epoch, std::uint32_t qpn,
                                 std::uint64_t seq) {
  if (epoch != epoch_ || !alive_) return;
  Qp* qp = find_qp(qpn);
  if (qp == nullptr || qp->in_error) return;
  const auto it = qp->unacked.find(seq);
  if (it == qp->unacked.end()) return;  // ACKed in the meantime
  if (it != qp->unacked.begin()) {
    // Not the head of the unacked window. The head's timer drives
    // go-back-N (which replays this packet too); keep watching at the
    // base cadence until this packet is ACKed or becomes head.
    arm_retransmit(qpn, seq);
    return;
  }
  if (it->second.attempts > params_.max_retransmits) {
    fail_qp(*qp);
    return;
  }
  ++it->second.attempts;
  // Go-back-N: a head timeout means everything after the last
  // cumulative ACK is suspect — replay the whole unacked window in
  // sequence order. PendingWr keeps the original PayloadRef, so a
  // replay shares the same payload block (zero-copy).
  for (auto& [s, wr] : qp->unacked) {
    ++retransmits_;
    if (tracer_ != nullptr) {
      tracer_->counter(trace::Component::kRnicRetransmit, sim_.now(), 1,
                       static_cast<std::uint16_t>(id_));
    }
    fabric_.send(wr.packet);
  }
  arm_retransmit_after(qpn, seq, backoff_delay(it->second.attempts - 1));
}

void Rnic::complete_send_wr(Qp& qp, std::uint64_t seq, const Packet& ack) {
  const auto it = qp.unacked.find(seq);
  if (it == qp.unacked.end()) return;  // duplicate ACK
  const Packet& orig = it->second.packet;

  if (ack.op == WireOp::kNak) {
    Wc wc;
    wc.wr_id = orig.wr_id;
    wc.status = WcStatus::kRemoteAccessError;
    wc.op = orig.op;
    wc.qpn = qp.qpn;
    qp.send_cq->push(wc);
    qp.unacked.erase(it);
    return;
  }

  if (orig.op == WireOp::kReadReq) {
    // Read response: DMA the returned data into local memory first.
    Cq* cq = qp.send_cq;
    const std::uint64_t wr_id = orig.wr_id;
    const std::uint32_t qpn = qp.qpn;
    const std::uint64_t len = ack.length;
    enqueue_dma_write(orig.local_addr, ack.payload, len, params_.ddio,
                      [this, cq, wr_id, qpn, len](SimTime) {
                        Wc wc;
                        wc.wr_id = wr_id;
                        wc.op = WireOp::kReadReq;
                        wc.qpn = qpn;
                        wc.byte_len = len;
                        cq->push(wc);
                      });
  } else {
    Wc wc;
    wc.wr_id = orig.wr_id;
    wc.op = orig.op;
    wc.qpn = qp.qpn;
    wc.byte_len = orig.length;
    qp.send_cq->push(wc);
  }
  qp.unacked.erase(it);
}

// ----------------------------------------------------------- RX pipeline

void Rnic::on_packet(Packet p) {
  if (!alive_) return;
  ++rx_packets_;
  const std::uint64_t epoch = epoch_;
  sim_.schedule(params_.rx_process, [this, epoch, p = std::move(p)]() mutable {
    if (epoch != epoch_ || !alive_) return;
    dispatch(std::move(p));
  });
}

void Rnic::dispatch(Packet p) {
  switch (p.op) {
    case WireOp::kAck:
    case WireOp::kFlushAck:
    case WireOp::kReadResp:
    case WireOp::kNak:
      handle_ack(p);
      return;
    default:
      admit_data(std::move(p));
      return;
  }
}

void Rnic::handle_ack(const Packet& p) {
  Qp* qp = find_qp(p.dst_qp);
  if (qp == nullptr) return;
  complete_send_wr(*qp, p.seq, p);
}

void Rnic::admit_data(Packet p) {
  const std::uint64_t bytes = p.wire_bytes();
  if (sram_used_ + bytes > params_.sram_capacity) {
    Qp* qp = find_qp(p.dst_qp);
    const bool reliable = qp != nullptr && qp->transport == Transport::kRC;
    if (reliable) {
      backlog_.push_back(std::move(p));  // link-level flow control
    }
    // UC/UD overflow: silently dropped (unreliable transports).
    return;
  }
  sram_used_ += bytes;
  trace_sram();
  process_admitted(std::move(p));
}

void Rnic::try_admit_backlog() {
  while (!backlog_.empty()) {
    const std::uint64_t bytes = backlog_.front().wire_bytes();
    if (sram_used_ + bytes > params_.sram_capacity) return;
    Packet p = std::move(backlog_.front());
    backlog_.pop_front();
    sram_used_ += bytes;
    trace_sram();
    process_admitted(std::move(p));
  }
}

void Rnic::release_sram(std::uint64_t bytes) {
  assert(sram_used_ >= bytes);
  sram_used_ -= bytes;
  trace_sram();
  try_admit_backlog();
}

void Rnic::process_admitted(Packet p) {
  Qp* qp = find_qp(p.dst_qp);
  if (qp == nullptr || !qp->connected) {
    // Stale packet for a torn-down QP (pre-crash traffic).
    release_sram(p.wire_bytes());
    return;
  }

  const bool reliable = qp->transport == Transport::kRC;

  if (reliable) {
    const bool response_op = p.op == WireOp::kReadReq ||
                             p.op == WireOp::kWFlushReq ||
                             p.op == WireOp::kSFlushReq;
    if (p.seq < qp->expected_seq) {
      // Retransmitted duplicate. Sends/writes whose ACK was lost are
      // simply re-ACKed; reads/flushes re-execute below (idempotent;
      // their response is their acknowledgement).
      if (!response_op) {
        release_sram(p.wire_bytes());
        Packet ack;
        ack.src = id_;
        ack.dst = p.src;
        ack.dst_qp = p.src_qp;
        ack.src_qp = p.dst_qp;
        ack.op = WireOp::kAck;
        ack.wr_id = p.wr_id;
        ack.seq = p.seq;
        transmit_control(std::move(ack));
        return;
      }
    } else if (p.seq > qp->expected_seq) {
      if (qp->ooo.count(p.seq) != 0) {
        // A go-back-N replay of a packet already parked out-of-order:
        // discard the copy and free its buffer (parking it twice would
        // leak the SRAM the duplicate admitted with).
        release_sram(p.wire_bytes());
        return;
      }
      // Arrived ahead of a predecessor (network jitter): hold it so RC
      // in-order semantics are preserved — a flush must never overtake
      // the write it covers. SRAM stays occupied while parked.
      qp->ooo.emplace(p.seq, std::move(p));
      return;
    } else {
      qp->expected_seq = p.seq + 1;
    }

    // T_A: RC acknowledges receipt into RNIC SRAM — *before* the data
    // is persistent. Reads/flushes are acknowledged by their response.
    // Region protection is validated BEFORE the ACK (a bad rkey NAKs).
    bool nakked = false;
    if (!response_op) {
      if ((p.op == WireOp::kWrite || p.op == WireOp::kWriteImm) &&
          !check_access_or_nak(p, Access::kRemoteWrite)) {
        nakked = true;  // NAK sent, SRAM released; still drain successors
      } else {
        Packet ack;
        ack.src = id_;
        ack.dst = p.src;
        ack.dst_qp = p.src_qp;
        ack.src_qp = p.dst_qp;
        ack.op = WireOp::kAck;
        ack.wr_id = p.wr_id;
        ack.seq = p.seq;
        transmit_control(std::move(ack));
      }
    }

    // Release any successors that were parked behind this packet.
    if (const auto next = qp->ooo.find(qp->expected_seq); next != qp->ooo.end()) {
      Packet successor = std::move(next->second);
      qp->ooo.erase(next);
      const std::uint64_t epoch = epoch_;
      sim_.schedule(0, [this, epoch, successor = std::move(successor)]() mutable {
        if (epoch != epoch_ || !alive_) return;
        process_admitted(std::move(successor));
      });
    }
    if (nakked) return;
  }

  switch (p.op) {
    case WireOp::kWrite: {
      if (!check_access_or_nak(p, Access::kRemoteWrite)) return;
      const std::uint64_t sram_bytes = p.wire_bytes();
      const std::uint64_t waddr = p.remote_addr;
      const std::uint64_t wlen = p.length;
      enqueue_dma_write(p.remote_addr, p.payload, p.length, params_.ddio,
                        [this, sram_bytes, waddr, wlen](SimTime) {
                          release_sram(sram_bytes);
                          maybe_auto_persist(waddr, wlen);
                        });
      return;
    }
    case WireOp::kWriteImm: {
      if (!check_access_or_nak(p, Access::kRemoteWrite)) return;
      const std::uint64_t sram_bytes = p.wire_bytes();
      Packet notify = p;  // keep metadata for the completion
      enqueue_dma_write(
          p.remote_addr, p.payload, p.length, params_.ddio,
          [this, sram_bytes, notify](SimTime) {
            release_sram(sram_bytes);
            Qp* q = find_qp(notify.dst_qp);
            if (q == nullptr) return;
            if (q->recv_queue.empty()) {
              Packet n = notify;
              n.payload = nullptr;  // data already placed
              q->rnr_queue.push_back(std::move(n));
              ++rnr_events_;
              return;
            }
            const RecvWqe wqe = q->recv_queue.front();
            q->recv_queue.pop_front();
            Wc wc;
            wc.wr_id = wqe.wr_id;
            wc.op = WireOp::kWriteImm;
            wc.qpn = q->qpn;
            wc.byte_len = notify.length;
            wc.imm = notify.imm;
            wc.has_imm = true;
            wc.local_addr = notify.remote_addr;
            q->recv_cq->push(wc);
          });
      return;
    }
    case WireOp::kSend:
    case WireOp::kSendImm:
      deliver_send(*qp, std::move(p));
      return;
    case WireOp::kReadReq:
      if (!check_access_or_nak(p, Access::kRemoteRead)) return;
      handle_read_req(std::move(p));
      return;
    case WireOp::kWFlushReq:
      if (!check_access_or_nak(p, Access::kRemoteFlush)) return;
      handle_wflush(std::move(p));
      return;
    case WireOp::kSFlushReq:
      handle_sflush(std::move(p));
      return;
    default:
      release_sram(p.wire_bytes());
      return;
  }
}

void Rnic::deliver_send(Qp& qp, Packet p) {
  if (p.op == WireOp::kWriteImm) {
    // Deferred write-imm notification being replayed from the RNR queue.
    if (qp.recv_queue.empty()) {
      qp.rnr_queue.push_back(std::move(p));
      return;
    }
    const RecvWqe wqe = qp.recv_queue.front();
    qp.recv_queue.pop_front();
    Wc wc;
    wc.wr_id = wqe.wr_id;
    wc.op = WireOp::kWriteImm;
    wc.qpn = qp.qpn;
    wc.byte_len = p.length;
    wc.imm = p.imm;
    wc.has_imm = true;
    wc.local_addr = p.remote_addr;
    qp.recv_cq->push(wc);
    return;
  }

  if (qp.recv_queue.empty()) {
    ++rnr_events_;
    qp.rnr_queue.push_back(std::move(p));
    return;
  }
  const RecvWqe wqe = qp.recv_queue.front();
  qp.recv_queue.pop_front();
  const std::uint64_t len = std::min(p.length, wqe.length);
  qp.last_send_addr = wqe.addr;
  qp.last_send_len = len;

  const std::uint64_t sram_bytes = p.wire_bytes();
  const std::uint32_t qpn = qp.qpn;
  const Packet meta = p;  // metadata for the completion
  enqueue_dma_write(wqe.addr, p.payload, len, params_.ddio,
                    [this, sram_bytes, qpn, wqe, len, meta](SimTime) {
                      release_sram(sram_bytes);
                      Qp* q = find_qp(qpn);
                      if (q == nullptr) return;
                      Wc wc;
                      wc.wr_id = wqe.wr_id;
                      wc.op = meta.op;
                      wc.qpn = qpn;
                      wc.byte_len = len;
                      wc.imm = meta.imm;
                      wc.has_imm = meta.has_imm;
                      wc.local_addr = wqe.addr;
                      q->recv_cq->push(wc);
                    });
}

bool Rnic::check_access_or_nak(const net::Packet& p, Access need) {
  if (!params_.enforce_mr) return true;
  if (mrs_.allows(p.remote_addr, p.length, need)) return true;
  ++access_violations_;
  release_sram(p.wire_bytes());
  Packet nak;
  nak.src = id_;
  nak.dst = p.src;
  nak.src_qp = p.dst_qp;
  nak.dst_qp = p.src_qp;
  nak.op = WireOp::kNak;
  nak.wr_id = p.wr_id;
  nak.seq = p.seq;
  transmit_control(std::move(nak));
  return false;
}

void Rnic::handle_read_req(Packet p) {
  // A read must order behind in-flight DMA writes to the same range —
  // this is exactly the side effect the read-after-write emulation of
  // WFlush exploits (§4.1.3).
  const SimTime start = std::max(sim_.now(), drain_time(p.remote_addr, p.length));
  const SimTime mem_done =
      mem_.device_read_complete_at(start, p.remote_addr, p.length);
  const SimTime pcie_done =
      mem_done + params_.pcie_setup +
      sim::transfer_time(p.length, params_.pcie_bw_bytes_per_s);

  const std::uint64_t epoch = epoch_;
  sim_.schedule_at(pcie_done, [this, epoch, p]() {
    if (epoch != epoch_ || !alive_) return;
    release_sram(p.wire_bytes());
    Packet resp;
    resp.src = id_;
    resp.dst = p.src;
    resp.src_qp = p.dst_qp;
    resp.dst_qp = p.src_qp;
    resp.op = WireOp::kReadResp;
    resp.wr_id = p.wr_id;
    resp.seq = p.seq;
    resp.length = p.length;
    // Coherent snapshot (sees LLC dirty lines), zero-copy for tracked
    // shadow ranges.
    resp.payload = mem_.read_payload(p.remote_addr, p.length);
    transmit_control(std::move(resp));
  });
}

void Rnic::handle_wflush(Packet p) {
  if (params_.ack_before_persist) {
    // MUTANT (see RnicParams::ack_before_persist): acknowledge the
    // flush right away, while the covered bytes may still be in SRAM /
    // in-flight DMA. A crash between this ACK and the DMA completion
    // loses or tears acknowledged data — the durability oracle must
    // flag it.
    ++flushes_;
    release_sram(p.wire_bytes());
    Packet ack;
    ack.src = id_;
    ack.dst = p.src;
    ack.src_qp = p.dst_qp;
    ack.dst_qp = p.src_qp;
    ack.op = WireOp::kFlushAck;
    ack.wr_id = p.wr_id;
    ack.seq = p.seq;
    transmit_control(std::move(ack));
    return;
  }

  // Persist [remote_addr, +len): wait for in-flight DMA to land, THEN
  // write back any DDIO-dirty lines (they only exist once the DMA
  // applied), then charge either the emulated read-after-write cost or
  // the idealised hardware flush cost.
  const SimTime drained =
      std::max(sim_.now(), drain_time(p.remote_addr, p.length));
  const std::uint64_t epoch = epoch_;
  sim_.schedule_at(drained, [this, epoch, p] {
    if (epoch != epoch_ || !alive_) return;
    const SimTime flush_begin = sim_.now();
    SimTime t = flush_begin;
    if (mem_.is_pm(p.remote_addr) &&
        mem_.llc().is_dirty(p.remote_addr, p.length)) {
      t = mem_.clflush(t, p.remote_addr, p.length);
    }
    if (params_.emulate_flush) {
      // Read-after-write: fetch the last cache line of the range.
      const std::uint64_t tail =
          p.remote_addr + (p.length > 0 ? p.length - 1 : 0);
      t = mem_.device_read_complete_at(t, mem::line_down(tail),
                                       mem::kCacheLine);
    } else {
      t += params_.hw_flush_cost;
    }
    ++flushes_;
    trace_span(trace::Component::kRnicWFlush, p.seq, flush_begin, t);
    sim_.schedule_at(t, [this, epoch, p] {
      if (epoch != epoch_ || !alive_) return;
      release_sram(p.wire_bytes());
      Packet ack;
      ack.src = id_;
      ack.dst = p.src;
      ack.src_qp = p.dst_qp;
      ack.dst_qp = p.src_qp;
      ack.op = WireOp::kFlushAck;
      ack.wr_id = p.wr_id;
      ack.seq = p.seq;
      transmit_control(std::move(ack));
    });
  });
}

void Rnic::handle_sflush(Packet p) {
  Qp* qp = find_qp(p.dst_qp);
  if (qp == nullptr) {
    release_sram(p.wire_bytes());
    return;
  }
  // The flushed data is the QP's most recent send, sitting in the
  // posted recv buffer (message buffer, Fig. 5 step A).
  const std::uint64_t src_addr = qp->last_send_addr;
  const std::uint64_t len = std::min<std::uint64_t>(p.length, qp->last_send_len);

  // Wait until that send's DMA into the message buffer completed, then
  // resolve the destination address (hardware: parse packet; emulated:
  // the paper charges ~7 µs, §4.1.3).
  SimTime t = std::max(sim_.now(), drain_time(src_addr, len));
  t += params_.emulate_flush ? params_.sflush_addressing
                             : params_.hw_addressing_cost;
  trace_span(trace::Component::kRnicSFlush, p.seq, sim_.now(), t);

  const std::uint64_t epoch = epoch_;
  sim_.schedule_at(t, [this, epoch, p, src_addr, len] {
    if (epoch != epoch_ || !alive_) return;
    // DMA-copy message buffer -> PM redo-log slot (Fig. 5 step B),
    // bypassing the cache into the persist domain.
    enqueue_dma_write(p.remote_addr, mem_.read_payload(src_addr, len), len,
                      /*ddio=*/false, [this, p](SimTime) {
                        ++flushes_;
                        release_sram(p.wire_bytes());
                        Packet ack;
                        ack.src = id_;
                        ack.dst = p.src;
                        ack.src_qp = p.dst_qp;
                        ack.dst_qp = p.src_qp;
                        ack.op = WireOp::kFlushAck;
                        ack.wr_id = p.wr_id;
                        ack.seq = p.seq;
                        transmit_control(std::move(ack));
                      });
  });
}

// ------------------------------------------------------------ DMA engine

void Rnic::enqueue_dma_write(std::uint64_t addr, net::PayloadRef payload,
                             std::uint64_t len, bool ddio,
                             DmaCallback on_done) {
  // The engine pipelines transaction setup: occupancy is the bus
  // transfer; the setup latency delays this transfer's completion but
  // does not block successors.
  const SimTime begin = std::max(sim_.now(), dma_busy_until_);
  const SimTime xfer = sim::transfer_time(len, params_.pcie_bw_bytes_per_s);
  dma_busy_until_ = begin + xfer;
  const SimTime pcie_done = begin + params_.pcie_setup + xfer;

  SimTime done;
  const bool to_llc = ddio && mem_.is_pm(addr);
  if (to_llc) {
    done = pcie_done + 100;  // LLC fill is fast — and volatile
  } else {
    // Media cost only: the DMA engine's own queue (dma_busy_until_)
    // is the serialization point; claiming device occupancy from a
    // future start would stall unrelated CPU flushes artificially.
    done = pcie_done + mem_.device_write_cost(addr, len);
  }
  pending_.push_back(PendingDma{addr, len, done, begin, payload, to_llc});
  trace_span(trace::Component::kRnicDma, addr, begin, done);

  const std::uint64_t epoch = epoch_;
  sim_.schedule_at(done, [this, epoch, addr, payload = std::move(payload),
                          len, ddio, done,
                          on_done = std::move(on_done)]() mutable {
    if (epoch != epoch_ || !alive_) return;  // crash: data lost in flight
    if (payload != nullptr) {
      mem_.dma_write_payload(addr, payload, ddio && mem_.is_pm(addr), len);
    }
    prune_pending();
    if (on_done) on_done(done);
  });
}

sim::SimTime Rnic::drain_time(std::uint64_t addr, std::uint64_t len) const {
  SimTime t = 0;
  for (const PendingDma& d : pending_) {
    const bool overlap = d.addr < addr + len && addr < d.addr + d.len;
    if (overlap) t = std::max(t, d.done);
  }
  return t;
}

void Rnic::prune_pending() {
  const SimTime now = sim_.now();
  std::erase_if(pending_, [now](const PendingDma& d) { return d.done <= now; });
}

// -------------------------------------------------------- local persist

void Rnic::persist_range(std::uint64_t addr, std::uint64_t len,
                         DmaCallback on_done) {
  const SimTime drained = std::max(sim_.now(), drain_time(addr, len));
  const std::uint64_t epoch = epoch_;
  sim_.schedule_at(
      drained,
      [epoch, this, addr, len, on_done = std::move(on_done)]() mutable {
        if (epoch != epoch_ || !alive_) return;
        const SimTime drained_at = sim_.now();
        SimTime t = drained_at;
        if (mem_.is_pm(addr) && mem_.llc().is_dirty(addr, len)) {
          t = mem_.clflush(t, addr, len);
        }
        trace_span(trace::Component::kRnicRFlush, addr, drained_at, t);
        sim_.schedule_at(t, [epoch, this, t,
                             on_done = std::move(on_done)]() mutable {
          if (epoch != epoch_ || !alive_) return;
          on_done(t);
        });
      });
}

void Rnic::configure_auto_persist(Qp& qp, std::uint64_t addr,
                                  std::uint64_t len,
                                  std::uint64_t notify_addr,
                                  std::uint64_t initial_counter) {
  auto_persist_.push_back(
      AutoPersist{qp.qpn, addr, len, notify_addr, initial_counter});
}

void Rnic::maybe_auto_persist(std::uint64_t addr, std::uint64_t len) {
  if (!params_.smartnic_rflush || auto_persist_.empty()) return;
  for (AutoPersist& ap : auto_persist_) {
    const bool overlap = ap.addr < addr + len && addr < ap.addr + ap.len;
    if (!overlap) continue;
    // Persist what just landed, then push the updated counter to the
    // sender's notify word. Both steps are NIC-side: the receiver CPU
    // is never involved (§4.5).
    AutoPersist* slot = &ap;
    const std::uint64_t epoch = epoch_;
    persist_range(addr, len, [this, epoch, slot](SimTime) {
      if (epoch != epoch_ || !alive_) return;
      ++slot->counter;
      ++flushes_;
      Qp* qp = find_qp(slot->qpn);
      if (qp == nullptr || !qp->connected) return;
      net::Packet n;
      n.src = id_;
      n.dst = qp->peer;
      n.src_qp = qp->qpn;
      n.dst_qp = qp->peer_qpn;
      n.op = net::WireOp::kWrite;
      n.wr_id = 0;  // silent
      n.remote_addr = slot->notify_addr;
      n.length = 8;
      std::byte image[8];
      std::memcpy(image, &slot->counter, 8);
      n.payload = mem_.pool().make_bytes(image);
      n.seq = qp->next_seq++;
      // NIC-generated: fire on the control path (no host WQE fetch);
      // the RC ACK for it resolves silently via handle_ack. The notify
      // is RC traffic like any other — it arms a retransmission timer,
      // or a lost notify would stall the sender's persist wait forever.
      qp->unacked[n.seq] = Qp::PendingWr{n, 1};
      arm_retransmit(qp->qpn, n.seq);
      transmit_control(n);
    });
  }
}

// ---------------------------------------------------------------- crash

void Rnic::crash() {
  if (!alive_) return;
  alive_ = false;
  ++epoch_;
  fabric_.unregister_node(id_);
  auto_persist_.clear();  // smartNIC lookup tables are volatile
  mrs_.clear();           // protection state is NIC-volatile too

  // Everything volatile on the NIC is gone.
  bytes_lost_ += sram_used_;
  for (const Packet& p : backlog_) bytes_lost_ += p.wire_bytes();
  sram_used_ = 0;
  backlog_.clear();

  // In-flight DMA: a non-DDIO write headed for PM lands *partially* —
  // the line-aligned prefix proportional to its elapsed transfer time
  // is already on the media when the power fails (torn entry). DDIO
  // fills and DRAM-bound writes are purely volatile and vanish whole.
  const SimTime now = sim_.now();
  for (const PendingDma& d : pending_) {
    if (d.done <= now || d.payload == nullptr) continue;  // landed/no data
    if (d.ddio || !mem_.is_pm(d.addr)) continue;
    std::uint64_t persisted = 0;
    if (now > d.begin && d.done > d.begin) {
      persisted = d.len * (now - d.begin) / (d.done - d.begin);
    }
    mem_.dma_torn_write(d.addr, d.payload, d.len, persisted);
  }
  pending_.clear();
  dma_busy_until_ = 0;
  tx_busy_until_ = 0;

  for (auto& [qpn, qp] : qps_) {
    qp->connected = false;
    qp->recv_queue.clear();
    qp->rnr_queue.clear();
    qp->ooo.clear();
    // Flush outstanding sender WRs with an error completion.
    for (auto& [seq, wr] : qp->unacked) {
      Wc wc;
      wc.wr_id = wr.packet.wr_id;
      wc.status = WcStatus::kFlushed;
      wc.op = wr.packet.op;
      wc.qpn = qpn;
      qp->send_cq->push(wc);
    }
    qp->unacked.clear();
  }
}

void Rnic::restart() {
  if (alive_) return;
  alive_ = true;
  ++epoch_;
  fabric_.register_node(id_, sim_, [this](Packet p) { on_packet(std::move(p)); });
}

}  // namespace prdma::rnic
