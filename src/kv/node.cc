#include "src/kv/node.h"

#include <utility>

#include "src/common/check.h"

namespace cxlpool::kv {

KvNode::KvNode(stack::UdpStack* stack, Store* store, NodeConfig config,
               obs::Registry* registry, obs::Labels labels)
    : stack_(stack), store_(store), config_(config) {
  obs::Scope scope =
      registry != nullptr ? obs::Scope(*registry, std::move(labels))
                          : stack->host().metrics().With(std::move(labels));
  rx_requests_ = scope.GetCounter("kv.rx_requests");
  decode_errors_ = scope.GetCounter("kv.decode_errors");
  shed_front_ = scope.GetCounter("kv.shed_front");
  expired_front_ = scope.GetCounter("kv.expired_front");
  replies_sent_ = scope.GetCounter("kv.replies_sent");
  reply_send_failures_ = scope.GetCounter("kv.reply_send_failures");
  service_ns_ = scope.GetHistogram("kv.service_ns");
}

Status KvNode::Start(sim::StopToken& stop) {
  auto sock = stack_->Bind(config_.port);
  if (!sock.ok()) {
    return sock.status();
  }
  sock_ = *sock;
  for (int w = 0; w < config_.workers; ++w) {
    sim::Spawn(Worker(stop));
  }
  return OkStatus();
}

WireStatus KvNode::MapStatus(const Status& st) {
  switch (st.code()) {
    case StatusCode::kOk:
      return WireStatus::kOk;
    case StatusCode::kNotFound:
      return WireStatus::kNotFound;
    case StatusCode::kDeadlineExceeded:
      return WireStatus::kDeadlineExceeded;
    case StatusCode::kDataLoss:
      return WireStatus::kDataLoss;
    case StatusCode::kInvalidArgument:
      return WireStatus::kInvalidArgument;
    case StatusCode::kResourceExhausted:
      return WireStatus::kStoreFull;
    default:
      // kOverloaded plus transport-ish internals (Unavailable, Internal):
      // the client treats all of them as "back off", per the PR 6 rule
      // that kOverloaded is never blindly retried.
      return WireStatus::kOverloaded;
  }
}

sim::Task<> KvNode::Worker(sim::StopToken& stop) {
  sim::EventLoop& loop = sock_->Loop();
  while (!stop.stopped()) {
    auto d = co_await sock_->Recv(loop.now() + kNodeRecvPoll);
    if (!d.ok()) {
      continue;  // poll timeout (or teardown); keep watching for stop
    }
    // Detached per-request service: admission control inside Serve bounds
    // the concurrency, the dispatcher stays free to shed the backlog.
    sim::Spawn(Serve(std::move(*d)));
  }
}

sim::Task<> KvNode::Serve(stack::Datagram d) {
  auto req = DecodeRequest(d.payload);
  if (!req.ok()) {
    // Hostile/truncated frame: typed error, counted and dropped (there is
    // no trustworthy client identity to answer to).
    decode_errors_->Inc();
    co_return;
  }
  rx_requests_->Inc();
  sim::EventLoop& loop = sock_->Loop();
  Response rsp;
  rsp.opcode = req->opcode;
  rsp.client_id = req->client_id;
  rsp.seq = req->seq;

  if (inflight_ >= config_.max_inflight) {
    // Shed at the front: no store work, no SSD work, a cheap typed reply.
    shed_front_->Inc();
    rsp.status = WireStatus::kOverloaded;
  } else if (req->deadline > 0 && loop.now() >= req->deadline) {
    expired_front_->Inc();
    rsp.status = WireStatus::kDeadlineExceeded;
  } else {
    ++inflight_;
    Nanos t0 = loop.now();
    switch (req->opcode) {
      case Opcode::kGet: {
        auto r = co_await store_->Get(req->key, req->deadline);
        if (r.ok()) {
          rsp.status = WireStatus::kOk;
          rsp.origin = r->origin;
          rsp.value = std::move(r->value);
        } else {
          rsp.status = MapStatus(r.status());
        }
        break;
      }
      case Opcode::kSet: {
        Status st = co_await store_->Set(req->key, req->value, req->deadline);
        rsp.status = MapStatus(st);
        break;
      }
      case Opcode::kDelete: {
        Status st = co_await store_->Delete(req->key, req->deadline);
        rsp.status = MapStatus(st);
        break;
      }
    }
    --inflight_;
    service_ns_->Add(loop.now() - t0);
    if (rsp.status == WireStatus::kOk) {
      last_served_at_ = loop.now();
    }
  }

  Status sent = co_await sock_->SendTo(d.src_mac, d.src_port,
                                       EncodeResponse(rsp));
  if (sent.ok()) {
    replies_sent_->Inc();
  } else {
    reply_send_failures_->Inc();
  }
}

}  // namespace cxlpool::kv
