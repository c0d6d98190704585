// KvNode: the memcached-style server front. Pulls datagrams off a bound
// UdpSocket, decodes KV frames (typed errors, hostile bytes never crash),
// applies the PR 6 overload contract at the front door — admission bound
// `max_inflight` sheds with kOverloaded before any store/SSD work, expired
// requests are answered kDeadlineExceeded without touching the datapath —
// and dispatches the rest to the sharded Store with the client's absolute
// deadline propagated through (into SSD overflow ops when the key is cold).
#ifndef SRC_KV_NODE_H_
#define SRC_KV_NODE_H_

#include <memory>

#include "src/kv/store.h"
#include "src/kv/wire.h"
#include "src/obs/registry.h"
#include "src/stack/udp.h"

namespace cxlpool::kv {

// How long a node worker's socket receive waits before it re-checks its
// stop token.
inline constexpr Nanos kNodeRecvPoll = 50 * kMicrosecond;

struct NodeConfig {
  uint16_t port = 11211;
  // Receive loops pulling from the socket (dispatchers).
  int workers = 2;
  // Admission bound: requests beyond this many concurrent services are
  // shed kOverloaded at the front, before the store sees them.
  uint64_t max_inflight = 64;
};

class KvNode {
 public:
  // `stack` must be Start()ed and outlive the node; `store` likewise.
  // Counts under `labels` in `registry`, or under the host's scope plus
  // `labels` when it is null: kv.rx_requests, kv.decode_errors,
  // kv.shed_front, kv.expired_front, kv.replies_sent,
  // kv.reply_send_failures and the kv.service_ns histogram.
  KvNode(stack::UdpStack* stack, Store* store, NodeConfig config,
         obs::Registry* registry, obs::Labels labels = {});

  // Binds the port and spawns the worker loops (detached; they exit when
  // `stop` fires or the stack's NIC path dies).
  Status Start(sim::StopToken& stop);

  Store& store() { return *store_; }
  uint64_t inflight() const { return inflight_; }
  // Sim time of the last successfully served request — chaos recovery
  // probes read this to decide "the node is serving again".
  Nanos last_served_at() const { return last_served_at_; }

 private:
  sim::Task<> Worker(sim::StopToken& stop);
  sim::Task<> Serve(stack::Datagram d);
  static WireStatus MapStatus(const Status& st);

  stack::UdpStack* stack_;
  Store* store_;
  NodeConfig config_;
  stack::UdpSocket* sock_ = nullptr;
  uint64_t inflight_ = 0;
  Nanos last_served_at_ = 0;

  obs::Counter* rx_requests_;
  obs::Counter* decode_errors_;
  obs::Counter* shed_front_;
  obs::Counter* expired_front_;
  obs::Counter* replies_sent_;
  obs::Counter* reply_send_failures_;
  sim::Histogram* service_ns_;
};

}  // namespace cxlpool::kv

#endif  // SRC_KV_NODE_H_
