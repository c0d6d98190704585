#include "src/msg/channel.h"

namespace cxlpool::msg {

Result<std::unique_ptr<Channel>> Channel::Create(cxl::CxlPool& pool,
                                                 cxl::HostAdapter& a,
                                                 cxl::HostAdapter& b,
                                                 Options options) {
  uint64_t per_ring = RingFootprint(options.slots);
  ASSIGN_OR_RETURN(cxl::PoolSegment seg, pool.Allocate(2 * per_ring));

  RingConfig a_to_b;
  a_to_b.base = seg.base;
  a_to_b.slots = options.slots;
  a_to_b.poll_min = options.poll_min;
  a_to_b.poll_max = options.poll_max;
  a_to_b.full_wait = options.full_wait;
  // Wire the pod's message-fabric fault plane (if any) into both
  // directions so every channel — report, control, forwarding, peer
  // probe — is partitionable by directed (sender → receiver) host pair.
  a_to_b.fault_plane = a.fault_plane();
  a_to_b.src_host = a.id();
  a_to_b.dst_host = b.id();

  RingConfig b_to_a = a_to_b;
  b_to_a.base = seg.base + per_ring;
  b_to_a.src_host = b.id();
  b_to_a.dst_host = a.id();

  auto channel = std::unique_ptr<Channel>(new Channel());
  channel->segment_ = seg;
  channel->end_a_ = std::make_unique<Endpoint>(a, a_to_b, b_to_a);
  channel->end_b_ = std::make_unique<Endpoint>(b, b_to_a, a_to_b);
  return channel;
}

}  // namespace cxlpool::msg
