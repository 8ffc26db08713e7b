// Forwarding shims the traced run installs at the two public boundaries a
// VM calls through: vm::RemotePeer (the rpc layer) and vm::VmHooks (the
// monitor and the platform). Each shim opens a span, forwards the call
// unchanged and closes the span; nothing it does reaches virtual time, so a
// traced run must reproduce the untraced run's virtual outputs exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/simclock.hpp"
#include "platform/platform.hpp"
#include "spans.hpp"
#include "vm/hooks.hpp"
#include "vm/remote.hpp"
#include "vm/vm.hpp"

namespace perfbench {

class TracedPeer final : public aide::vm::RemotePeer {
 public:
  TracedPeer(aide::vm::RemotePeer& inner, SpanRecorder& rec,
             const aide::SimClock& clock,
             std::vector<aide::SimDuration>& latencies)
      : inner_(inner), rec_(rec), clock_(clock), latencies_(latencies) {}

  // Logical operations seen; comparable with EndpointStats::ops_sent.
  [[nodiscard]] std::uint64_t ops() const noexcept { return ops_; }

  aide::vm::Value invoke(aide::ObjectId target, aide::ClassId cls,
                         aide::MethodId method,
                         std::span<const aide::vm::Value> args) override {
    return op([&] { return inner_.invoke(target, cls, method, args); });
  }
  aide::vm::Value invoke_static(
      aide::ClassId cls, aide::MethodId method,
      std::span<const aide::vm::Value> args) override {
    return op([&] { return inner_.invoke_static(cls, method, args); });
  }
  aide::vm::Value get_field(aide::ObjectId target,
                            aide::FieldId field) override {
    return op([&] { return inner_.get_field(target, field); });
  }
  void put_field(aide::ObjectId target, aide::FieldId field,
                 const aide::vm::Value& v) override {
    op([&] { inner_.put_field(target, field, v); });
  }
  aide::vm::Value get_static(aide::ClassId cls, std::uint32_t slot) override {
    return op([&] { return inner_.get_static(cls, slot); });
  }
  void put_static(aide::ClassId cls, std::uint32_t slot,
                  const aide::vm::Value& v) override {
    op([&] { inner_.put_static(cls, slot, v); });
  }
  aide::vm::Value array_get(aide::ObjectId target,
                            std::int64_t index) override {
    return op([&] { return inner_.array_get(target, index); });
  }
  void array_put(aide::ObjectId target, std::int64_t index,
                 const aide::vm::Value& v) override {
    op([&] { inner_.array_put(target, index, v); });
  }
  std::int64_t array_length(aide::ObjectId target) override {
    return op([&] { return inner_.array_length(target); });
  }
  std::string chars_read(aide::ObjectId target, std::int64_t offset,
                         std::int64_t length) override {
    return op([&] { return inner_.chars_read(target, offset, length); });
  }
  void chars_write(aide::ObjectId target, std::int64_t offset,
                   std::string_view data) override {
    op([&] { inner_.chars_write(target, offset, data); });
  }
  void release(std::span<const aide::ObjectId> ids) override {
    Scope s(&rec_, Layer::rpc);
    inner_.release(ids);
  }
  void flush_pending() override {
    Scope s(&rec_, Layer::rpc);
    inner_.flush_pending();
  }

 private:
  template <class F>
  auto op(F&& f) -> std::invoke_result_t<F&> {
    Scope s(&rec_, Layer::rpc);
    ops_ += 1;
    const aide::SimTime t0 = clock_.now();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      latencies_.push_back(clock_.now() - t0);
    } else {
      auto v = f();
      latencies_.push_back(clock_.now() - t0);
      return v;
    }
  }

  aide::vm::RemotePeer& inner_;
  SpanRecorder& rec_;
  const aide::SimClock& clock_;
  std::vector<aide::SimDuration>& latencies_;
  std::uint64_t ops_ = 0;
};

class TracedHooks final : public aide::vm::VmHooks {
 public:
  // `after` runs once each forwarded event has returned (outside the span).
  TracedHooks(aide::vm::VmHooks& inner, SpanRecorder& rec, Layer layer,
              std::function<void()> after = {})
      : inner_(inner), rec_(rec), layer_(layer), after_(std::move(after)) {}

  void on_invoke(const aide::vm::InvokeEvent& e) override {
    {
      Scope s(&rec_, layer_);
      inner_.on_invoke(e);
    }
    if (after_) after_();
  }
  void on_access(const aide::vm::AccessEvent& e) override {
    {
      Scope s(&rec_, layer_);
      inner_.on_access(e);
    }
    if (after_) after_();
  }
  void on_method_enter(aide::NodeId vm, aide::ClassId cls, aide::ObjectId obj,
                       aide::MethodId m, aide::SimTime t) override {
    {
      Scope s(&rec_, layer_);
      inner_.on_method_enter(vm, cls, obj, m, t);
    }
    if (after_) after_();
  }
  void on_method_exit(aide::NodeId vm, aide::ClassId cls, aide::ObjectId obj,
                      aide::MethodId m, aide::SimDuration self_time,
                      aide::SimTime t) override {
    {
      Scope s(&rec_, layer_);
      inner_.on_method_exit(vm, cls, obj, m, self_time, t);
    }
    if (after_) after_();
  }
  void on_alloc(aide::NodeId vm, aide::ObjectId obj, aide::ClassId cls,
                std::int64_t bytes, aide::SimTime t) override {
    {
      Scope s(&rec_, layer_);
      inner_.on_alloc(vm, obj, cls, bytes, t);
    }
    if (after_) after_();
  }
  void on_resize(aide::NodeId vm, aide::ObjectId obj, aide::ClassId cls,
                 std::int64_t delta) override {
    {
      Scope s(&rec_, layer_);
      inner_.on_resize(vm, obj, cls, delta);
    }
    if (after_) after_();
  }
  void on_free(aide::NodeId vm, aide::ObjectId obj, aide::ClassId cls,
               std::int64_t bytes, aide::SimTime t) override {
    {
      Scope s(&rec_, layer_);
      inner_.on_free(vm, obj, cls, bytes, t);
    }
    if (after_) after_();
  }
  void on_gc(aide::NodeId vm, const aide::vm::GcReport& r) override {
    {
      Scope s(&rec_, layer_);
      inner_.on_gc(vm, r);
    }
    if (after_) after_();
  }

 private:
  aide::vm::VmHooks& inner_;
  SpanRecorder& rec_;
  Layer layer_;
  std::function<void()> after_;
};

// Swaps every hook the Platform registers for a traced forwarder, in the
// same order (client: execution monitor, resource monitor, platform;
// surrogate: execution monitor), and routes both VMs' remote calls through
// traced peers. Restores the original wiring on destruction, before the
// Platform itself goes away.
class PlatformShims {
 public:
  PlatformShims(aide::platform::Platform& p, SpanRecorder& rec,
                std::vector<aide::SimDuration>& latencies)
      : p_(p),
        // Platform implements VmHooks privately. A C-style cast is the one
        // cast the language lets reach a private base, and that base pointer
        // is the handle the VM registered.
        self_hooks_((aide::vm::VmHooks*)&p),
        exec_(p.exec_monitor(), rec, Layer::monitor),
        resource_(p.resource_monitor(), rec, Layer::monitor),
        self_(*self_hooks_, rec, Layer::platform, [this] { rewire(); }),
        surrogate_exec_(p.exec_monitor(), rec, Layer::monitor),
        client_peer_(p.client_endpoint(), rec, p.clock(), latencies),
        surrogate_peer_(p.surrogate_endpoint(), rec, p.clock(), latencies) {
    aide::vm::Vm& c = p.client();
    c.remove_hooks(&p.exec_monitor());
    c.remove_hooks(&p.resource_monitor());
    c.remove_hooks(self_hooks_);
    c.add_hooks(&exec_);
    c.add_hooks(&resource_);
    c.add_hooks(&self_);
    p.surrogate().remove_hooks(&p.exec_monitor());
    p.surrogate().add_hooks(&surrogate_exec_);
    rewire();
  }

  ~PlatformShims() {
    aide::vm::Vm& c = p_.client();
    c.remove_hooks(&exec_);
    c.remove_hooks(&resource_);
    c.remove_hooks(&self_);
    c.add_hooks(&p_.exec_monitor());
    c.add_hooks(&p_.resource_monitor());
    c.add_hooks(self_hooks_);
    p_.surrogate().remove_hooks(&surrogate_exec_);
    p_.surrogate().add_hooks(&p_.exec_monitor());
    // A shim still wired in forwards to the endpoint it wraps; hand the VMs
    // back to their endpoints directly (or leave them unwired).
    c.set_peer(p_.client_endpoint().connected() ? &p_.client_endpoint()
                                                : nullptr);
    p_.surrogate().set_peer(p_.surrogate_endpoint().connected()
                                ? &p_.surrogate_endpoint()
                                : nullptr);
  }

  PlatformShims(const PlatformShims&) = delete;
  PlatformShims& operator=(const PlatformShims&) = delete;

  // Endpoint::connect points each VM straight at its endpoint again after a
  // reconnect. A connected endpoint is always its VM's peer, so pointing the
  // VM at the shim that forwards to that endpoint changes nothing but what
  // is traced; the platform hook calls this after every event it handles.
  void rewire() {
    if (p_.client_endpoint().connected()) p_.client().set_peer(&client_peer_);
    if (p_.surrogate_endpoint().connected()) {
      p_.surrogate().set_peer(&surrogate_peer_);
    }
  }

  [[nodiscard]] std::uint64_t ops_seen() const noexcept {
    return client_peer_.ops() + surrogate_peer_.ops();
  }

 private:
  aide::platform::Platform& p_;
  aide::vm::VmHooks* self_hooks_;
  TracedHooks exec_;
  TracedHooks resource_;
  TracedHooks self_;
  TracedHooks surrogate_exec_;
  TracedPeer client_peer_;
  TracedPeer surrogate_peer_;
};

}  // namespace perfbench
