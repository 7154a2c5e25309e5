#ifndef PS2_SHARD_TRANSPORT_H_
#define PS2_SHARD_TRANSPORT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "shard/shard_map.h"

namespace ps2 {

// The fabric's only inter-shard channel. Every byte between the front and
// an engine shard — objects, query updates, match batches, drain markers —
// is an encoded wire frame (shard/wire.h) pushed through Send(), so
// swapping the in-process loopback for sockets is a transport change, not
// an engine change.
//
// Endpoints are ShardIds plus the distinguished front endpoint below.
// Handlers receive (from, frame) and must be safe for the transport's
// delivery discipline; LoopbackTransport documents its own.
inline constexpr ShardId kFrontEndpoint = -1;

class Transport {
 public:
  using Handler = std::function<void(ShardId from, const std::string& frame)>;

  virtual ~Transport() = default;

  // Installs the receive handler for `endpoint`, replacing any previous
  // one. Must complete before anyone Sends to that endpoint.
  virtual void RegisterEndpoint(ShardId endpoint, Handler handler) = 0;

  // Delivers one frame to `to`. Returns false if the endpoint is unknown.
  virtual bool Send(ShardId from, ShardId to, const std::string& frame) = 0;
};

// In-process transport: Send() invokes the destination handler synchronously
// on the caller's thread. That makes delivery ordering per (caller thread,
// destination) FIFO for free and keeps the fabric's single-producer engine
// contract intact — the front's facade thread is the only thread sending
// control-plane frames to a shard, so the shard-side handler runs
// single-producer too. Match frames flow shard -> front from many worker
// threads concurrently; the front's handler must therefore be thread-safe
// (the DeliveryRouter it feeds already is).
//
// Endpoints live in a fixed table indexed by `endpoint + 1` (the front, then
// ShardIds 0..63 — the fabric's shard cap); anything outside it is unknown.
// RegisterEndpoint publishes a handler with a release store, and Send reads
// its slot with an acquire load and calls the handler in place: no lock, no
// handler copy, so handlers may themselves Send (a drain marker's ack) and
// the front's concurrent match senders never contend. Handlers are never
// freed while the transport lives — a replaced one stays valid for a Send
// already running it — and the Transport contract keeps registration to
// setup anyway.
class LoopbackTransport final : public Transport {
 public:
  void RegisterEndpoint(ShardId endpoint, Handler handler) override {
    const uint32_t slot = Slot(endpoint);
    if (slot >= kMaxEndpoints) return;
    std::lock_guard<std::mutex> lock(register_mu_);
    handlers_.push_back(std::make_unique<const Handler>(std::move(handler)));
    table_[slot].store(handlers_.back().get(), std::memory_order_release);
  }

  bool Send(ShardId from, ShardId to, const std::string& frame) override {
    const uint32_t slot = Slot(to);
    if (slot >= kMaxEndpoints) return false;
    const Handler* h = table_[slot].load(std::memory_order_acquire);
    if (h == nullptr) return false;
    (*h)(from, frame);
    return true;
  }

 private:
  static constexpr uint32_t kMaxEndpoints = 65;

  // Unsigned arithmetic: every negative or huge id lands outside the table
  // without signed overflow (kFrontEndpoint -> 0, -2 -> 2^32 - 1).
  static uint32_t Slot(ShardId endpoint) {
    return static_cast<uint32_t>(endpoint) + 1u;
  }

  std::array<std::atomic<const Handler*>, kMaxEndpoints> table_{};
  std::mutex register_mu_;  // guards handlers_ (registration only)
  std::vector<std::unique_ptr<const Handler>> handlers_;
};

}  // namespace ps2

#endif  // PS2_SHARD_TRANSPORT_H_
