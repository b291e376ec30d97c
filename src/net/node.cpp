#include "net/node.hpp"

#include <cassert>
#include <utility>

namespace mgq::net {

namespace {

bool carriesPayload(const Packet& p) {
  if (const auto* t = p.tcp()) return !t->payload.empty();
  if (const auto* u = p.udp()) return !u->payload.empty();
  return false;
}

}  // namespace

Interface::Interface(sim::Simulator& sim, Node& owner, std::string name,
                     const QdiscConfig& qdisc)
    : sim_(sim),
      owner_(owner),
      name_(std::move(name)),
      pool_(&BufferPool::local()),
      qdisc_(qdisc.ef_capacity_bytes, qdisc.ll_capacity_bytes,
             qdisc.be_capacity_bytes) {}

void Interface::connect(Interface& peer, double rate_bps,
                        sim::Duration delay) {
  assert(peer_ == nullptr && "interface already connected");
  peer_ = &peer;
  rate_bps_ = rate_bps;
  delay_ = delay;
}

void Interface::send(Packet p) {
  assert(connected() && "sending on an unconnected interface");
  // Pool-pressure shedding: when the thread's payload pool sits at its
  // live-bytes ceiling, payload-bearing packets are dropped at admission
  // instead of queued — the drop releases their buffer refs, which is
  // what actually relieves the pressure, and transports recover through
  // ordinary retransmission. Header-only packets (ACKs, SYN/FIN, probes)
  // always pass, so the feedback that drains the pool keeps flowing.
  // Inactive (one predictable branch) when no ceiling is configured.
  if (pool_->underPressure() && carriesPayload(p)) {
    ++stats_.drops_pool_pressure;
    return;
  }
  p.enqueued_at = sim_.now();
  // Idle transmitter, nothing queued: the packet would be dequeued again
  // immediately, so skip the deque round-trip. passThrough keeps the
  // queue counters exactly as enqueue()+dequeue() would have left them.
  if (!transmitting_ && up_ && qdisc_.empty()) {
    if (!qdisc_.passThrough(p)) {
      ++stats_.drops_overflow;
      return;
    }
    transmitting_ = true;
    startTransmit(std::move(p));
    return;
  }
  // A down interface still queues (the device buffer persists across the
  // outage); transmission resumes on setUp(true).
  if (!qdisc_.enqueue(std::move(p))) {
    ++stats_.drops_overflow;
    return;
  }
  if (!transmitting_ && up_) {
    transmitting_ = true;
    transmitNext();
  }
}

void Interface::setUp(bool up) {
  if (up_ == up) return;
  up_ = up;
  for (const auto& observer : link_observers_) observer(*this, up_);
  if (up_ && !transmitting_) {
    transmitting_ = true;
    transmitNext();
  }
}

void Interface::transmitNext() {
  if (!up_) {
    transmitting_ = false;
    return;
  }
  auto next = qdisc_.dequeue();
  if (!next) {
    transmitting_ = false;
    return;
  }
  startTransmit(std::move(*next));
}

void Interface::startTransmit(Packet p) {
  const auto tx_time = sim::transmissionTime(p.size_bytes, rate_bps_);
  ++stats_.tx_packets;
  stats_.tx_bytes += p.size_bytes;
  tx_packet_ = std::move(p);
  sim_.schedule(tx_time, [this] { onSerialized(); });
}

// Serialization complete: the packet propagates to the peer and the
// transmitter moves on to the next queued packet. An injected loss
// episode eats the packet on the wire: bandwidth spent, nothing arrives.
// The propagation event is scheduled before the next transmission starts,
// preserving the exact event order of the pre-pool data plane. The
// adversarial hooks (partition, corrupt, duplicate, reorder) are all null
// or false by default, so an unhooked interface schedules the exact same
// events as before they existed.
void Interface::onSerialized() {
  Packet& pkt = *tx_packet_;
  if (loss_hook_ && loss_hook_(pkt)) {
    ++stats_.drops_fault;
  } else if (partitioned_) {
    ++stats_.drops_partition;
  } else {
    if (corrupt_hook_ && corrupt_hook_(pkt)) ++stats_.corrupted;
    std::optional<Packet> clone;
    if (duplicate_hook_ && duplicate_hook_(pkt)) {
      ++stats_.duplicated;
      clone = pkt;  // shares the payload slice — refcount bump, no copy
    }
    const auto extra =
        reorder_hook_ ? reorder_hook_(pkt) : sim::Duration::zero();
    if (extra > sim::Duration::zero()) {
      ++stats_.reordered;
      const auto id = delayed_seq_++;
      delayed_wire_.emplace(id, std::move(pkt));
      sim_.schedule(delay_ + extra, [this, id] { onDelayedPropagated(id); });
    } else {
      propagate(std::move(pkt));
    }
    if (clone) propagate(std::move(*clone));
  }
  tx_packet_.reset();
  transmitNext();
}

void Interface::propagate(Packet p) {
  wire_.push_back(std::move(p));
  sim_.schedule(delay_, [this] { onPropagated(); });
}

void Interface::onPropagated() {
  peer_->receive(std::move(wire_.front()));
  wire_.pop_front();
}

void Interface::onDelayedPropagated(std::uint64_t id) {
  auto it = delayed_wire_.find(id);
  if (it == delayed_wire_.end()) return;
  Packet p = std::move(it->second);
  delayed_wire_.erase(it);
  peer_->receive(std::move(p));
}

void Interface::receive(Packet p) {
  // Packets in flight towards a down interface are lost at the wire.
  if (!up_) {
    ++stats_.drops_link_down;
    return;
  }
  ++stats_.rx_packets;
  stats_.rx_bytes += p.size_bytes;
  if (!ingress_policy_.hasRules()) {
    owner_.deliver(std::move(p), *this);
    return;
  }
  auto processed = ingress_policy_.process(std::move(p));
  if (!processed) {
    ++stats_.drops_policed;
    return;
  }
  owner_.deliver(std::move(*processed), *this);
}

Interface& Node::addInterface(const QdiscConfig& qdisc) {
  const auto index = interfaces_.size();
  interfaces_.push_back(std::make_unique<Interface>(
      sim_, *this, name_ + "/if" + std::to_string(index), qdisc));
  return *interfaces_.back();
}

}  // namespace mgq::net
