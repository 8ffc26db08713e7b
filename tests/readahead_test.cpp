// Tests for the link-sized read-ahead: strided slot windows over remote
// int/char arrays and oversized plain objects, the whole-object snapshot
// budget (one bandwidth-delay product), invalidation at every yield point,
// coherence with deferred and eager stores, and exactly-once behaviour of
// windowed reads under message chaos.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "analysis/batch_oracle.hpp"
#include "common/error.hpp"
#include "netsim/link.hpp"
#include "rpc/endpoint.hpp"
#include "tests/test_util.hpp"

namespace aide::rpc {
namespace {

using aide::test::arg;
using vm::ObjectRef;
using vm::Value;
using vm::Vm;
using vm::VmConfig;

// The test library plus three helpers that touch arrays from inside an
// invoke: Poker writes where it runs, Reader reads where it runs, and
// Sink.poke is a static native, so it always runs on the client.
std::shared_ptr<vm::ClassRegistry> make_registry() {
  auto reg = aide::test::make_test_registry();
  using vm::ClassBuilder;
  reg->register_class(
      ClassBuilder("Poker")
          .method("poke",
                  [](Vm& ctx, ObjectRef, auto args) -> Value {
                    ctx.array_put(arg(args, 0).as_ref(), arg(args, 1).as_int(),
                                  arg(args, 2));
                    return Value{};
                  })
          .method("set",
                  [](Vm& ctx, ObjectRef, auto args) -> Value {
                    ctx.put_field(arg(args, 0).as_ref(),
                                  FieldId{static_cast<std::uint32_t>(
                                      arg(args, 1).as_int())},
                                  arg(args, 2));
                    return Value{};
                  })
          .build());
  reg->register_class(
      ClassBuilder("Reader")
          .method("get",
                  [](Vm& ctx, ObjectRef, auto args) -> Value {
                    return ctx.array_get(arg(args, 0).as_ref(),
                                         arg(args, 1).as_int());
                  })
          .method("sum",
                  [](Vm& ctx, ObjectRef, auto args) -> Value {
                    std::int64_t sum = 0;
                    for (std::int64_t i = arg(args, 1).as_int();
                         i < arg(args, 2).as_int(); ++i) {
                      sum += ctx.array_get(arg(args, 0).as_ref(), i).as_int();
                    }
                    return Value{sum};
                  })
          .build());
  reg->register_class(
      ClassBuilder("Sink")
          .native_method(
              "poke",
              [](Vm& ctx, ObjectRef, auto args) -> Value {
                ctx.array_put(arg(args, 0).as_ref(), arg(args, 1).as_int(),
                              arg(args, 2));
                return Value{};
              },
              /*stateless=*/false, /*is_static=*/true)
          .build());
  return reg;
}

VmConfig client_cfg() {
  VmConfig c;
  c.node = NodeId{1};
  c.name = "client";
  c.is_client = true;
  c.heap_capacity = 4 << 20;
  return c;
}

VmConfig surrogate_cfg() {
  VmConfig c;
  c.node = NodeId{2};
  c.name = "surrogate";
  c.is_client = false;
  c.cpu_speed = 3.5;
  c.heap_capacity = 32 << 20;
  return c;
}

// A connected client/surrogate pair on one WaveLAN link.
struct Duo {
  Duo()
      : registry(make_registry()),
        link(netsim::LinkParams::wavelan()),
        client(client_cfg(), registry, clock),
        surrogate(surrogate_cfg(), registry, clock),
        client_ep(client, link),
        surrogate_ep(surrogate, link) {
    Endpoint::connect(client_ep, surrogate_ep);
  }

  // Moves one client object to the surrogate.
  void offload(ObjectRef obj) {
    const ObjectId ids[] = {obj.id};
    client_ep.migrate_objects(ids);
  }

  std::shared_ptr<vm::ClassRegistry> registry;
  SimClock clock;
  netsim::Link link;
  Vm client;
  Vm surrogate;
  Endpoint client_ep;
  Endpoint surrogate_ep;
};

// The read-ahead byte budget: one bandwidth-delay product of the link.
std::uint64_t budget(const netsim::Link& link) {
  const netsim::LinkParams& p = link.params();
  return static_cast<std::uint64_t>(
      p.bandwidth_bps * static_cast<double>(p.null_rtt) / 8e9);
}

class ReadAheadTest : public ::testing::Test {
 protected:
  // An offloaded int array holding value(i) at index i.
  ObjectRef remote_ints(std::int64_t len) {
    const ObjectRef arr = d_.client.new_int_array(len);
    d_.client.add_root(arr);
    for (std::int64_t i = 0; i < len; ++i) {
      d_.client.array_put(arr, i, Value{value(i)});
    }
    d_.offload(arr);
    return arr;
  }
  // An offloaded reference array of `len` int slots: too large to ship whole.
  ObjectRef remote_big_object(std::int64_t len) {
    const ObjectRef obj = d_.client.new_ref_array(len);
    d_.client.add_root(obj);
    for (std::int64_t i = 0; i < len; ++i) {
      d_.client.put_field(obj, FieldId{static_cast<std::uint32_t>(i)},
                          Value{value(i)});
    }
    d_.offload(obj);
    return obj;
  }
  ObjectRef remote_object(std::string_view cls) {
    const ObjectRef obj = d_.client.new_object(cls);
    d_.client.add_root(obj);
    d_.offload(obj);
    return obj;
  }
  static std::int64_t value(std::int64_t i) { return i * 7 + 1; }

  // Reads [0, n) so the client holds a live window past n; returns the sum.
  std::int64_t warm(ObjectRef arr, std::int64_t n) {
    std::int64_t sum = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      sum += d_.client.array_get(arr, i).as_int();
    }
    return sum;
  }

  Duo d_;
};

TEST_F(ReadAheadTest, StrideFourScanSendsAFractionOfThePerElementFrames) {
  constexpr std::int64_t kLen = 16384;
  const ObjectRef arr = remote_ints(kLen);
  const auto scan = [&] {
    std::vector<std::int64_t> got;
    for (std::int64_t i = 0; i < kLen; i += 4) {
      got.push_back(d_.client.array_get(arr, i).as_int());
    }
    return got;
  };

  BatchPolicy per_element;
  per_element.read_ahead = false;
  d_.client_ep.set_batch_policy(per_element);
  const auto before_legacy = d_.client_ep.stats().rpcs_sent;
  const auto legacy = scan();
  const auto legacy_frames = d_.client_ep.stats().rpcs_sent - before_legacy;
  EXPECT_EQ(legacy_frames, static_cast<std::uint64_t>(kLen / 4));

  d_.client_ep.set_batch_policy(BatchPolicy{});
  const EndpointStats before = d_.client_ep.stats();
  const auto windowed = scan();
  const EndpointStats& after = d_.client_ep.stats();
  const auto frames = after.rpcs_sent - before.rpcs_sent;

  EXPECT_EQ(windowed, legacy);
  for (std::size_t k = 0; k < windowed.size(); ++k) {
    ASSERT_EQ(windowed[k], value(static_cast<std::int64_t>(k) * 4));
  }
  EXPECT_LE(frames * 20, legacy_frames);
  EXPECT_EQ(after.readahead_hits - before.readahead_hits + frames,
            legacy_frames);
  // Every reply fits one bandwidth-delay product plus its framing.
  EXPECT_LE(after.bytes_received - before.bytes_received,
            frames * (budget(d_.link) + 64));
}

TEST_F(ReadAheadTest, StencilNeighboursAreSideReadsThatKeepTheScan) {
  // A 3-point stencil over a 64x64 image: each step reads the pixel, its
  // left neighbour and the one above. The neighbours trail the scan, so each
  // costs a single-op frame, while the scan itself is read by window.
  constexpr std::int64_t kW = 64;
  const ObjectRef img = remote_ints(kW * kW);
  const EndpointStats before = d_.client_ep.stats();
  std::int64_t reads = 0;
  for (std::int64_t y = 1; y + 1 < kW; y += 2) {
    for (std::int64_t x = 1; x + 1 < kW; x += 2) {
      const std::int64_t c = y * kW + x;
      ASSERT_EQ(d_.client.array_get(img, c).as_int(), value(c));
      ASSERT_EQ(d_.client.array_get(img, c - 1).as_int(), value(c - 1));
      ASSERT_EQ(d_.client.array_get(img, c - kW).as_int(), value(c - kW));
      reads += 3;
    }
  }
  const auto frames = d_.client_ep.stats().rpcs_sent - before.rpcs_sent;
  const auto steps = static_cast<std::uint64_t>(reads / 3);
  EXPECT_LE(frames, 2 * steps + steps / 8);
}

TEST_F(ReadAheadTest, SecondPassWithoutAYieldStartsANewScan) {
  constexpr std::int64_t kLen = 2048;
  const ObjectRef arr = remote_ints(kLen);
  for (std::int64_t pass = 0; pass < 2; ++pass) {
    const auto sent = d_.client_ep.stats().rpcs_sent;
    for (std::int64_t i = 0; i < kLen; ++i) {
      ASSERT_EQ(d_.client.array_get(arr, i).as_int(), value(i));
    }
    // Growth to the budget cap, then one frame per budget-sized run.
    EXPECT_LT(d_.client_ep.stats().rpcs_sent - sent, 20u) << "pass " << pass;
  }
}

TEST_F(ReadAheadTest, OutOfRangeSlotsFailLikeSingleOps) {
  const ObjectRef arr = remote_ints(64);
  const ObjectRef chars = d_.client.new_char_array("abcdefgh");
  d_.client.add_root(chars);
  d_.offload(chars);
  warm(arr, 16);
  (void)d_.client.array_get(chars, 0);
  (void)d_.client.array_get(chars, 1);
  for (const std::int64_t bad : {std::int64_t{-1}, std::int64_t{64},
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()}) {
    try {
      (void)d_.client.array_get(arr, bad);
      ADD_FAILURE() << "read of slot " << bad << " succeeded";
    } catch (const VmError& e) {
      EXPECT_EQ(e.code(), VmErrorCode::bad_array_index) << bad;
    }
    // A bulk write outside the array leaves the window usable and fails on
    // flush. (INT64_MAX is left out: the peer's range check would overflow.)
    if (bad != std::numeric_limits<std::int64_t>::max()) {
      d_.client.chars_write(chars, bad, "z");
      EXPECT_THROW(d_.client_ep.flush_pending(), VmError) << bad;
    }
  }
  EXPECT_EQ(d_.client.array_get(arr, 20).as_int(), value(20));
  EXPECT_EQ(d_.client.array_get(chars, 2).as_int(), 'c');
}

TEST_F(ReadAheadTest, SmallObjectStillShipsWhole) {
  const ObjectRef pair = d_.client.new_object("Pair");
  d_.client.add_root(pair);
  d_.client.put_field(pair, FieldId{0}, Value{3});
  d_.client.put_field(pair, FieldId{1}, Value{"four"});
  d_.offload(pair);

  const EndpointStats before = d_.client_ep.stats();
  EXPECT_EQ(d_.client.get_field(pair, FieldId{0}).as_int(), 3);
  EXPECT_EQ(d_.client.get_field(pair, FieldId{1}).as_str(), "four");
  EXPECT_EQ(d_.client_ep.stats().rpcs_sent - before.rpcs_sent, 1u);
  EXPECT_EQ(d_.client_ep.stats().snapshots_fetched - before.snapshots_fetched,
            1u);
  EXPECT_EQ(d_.client_ep.stats().readahead_hits - before.readahead_hits, 1u);
}

TEST_F(ReadAheadTest, OversizedObjectIsNeverShippedWhole) {
  constexpr std::int64_t kSlots = 2000;  // ~18 KB of ints: over budget
  const ObjectRef big = remote_big_object(kSlots);

  // The first read learns "oversized" (one extra round trip, once) and then
  // reads the one field: two small replies, no snapshot.
  const EndpointStats before = d_.client_ep.stats();
  EXPECT_EQ(d_.client.get_field(big, FieldId{0}).as_int(), value(0));
  EXPECT_EQ(d_.client_ep.stats().rpcs_sent - before.rpcs_sent, 2u);
  EXPECT_LT(d_.client_ep.stats().bytes_received - before.bytes_received, 200u);
  EXPECT_EQ(d_.client_ep.stats().snapshots_fetched, before.snapshots_fetched);

  // A forward scan reads the rest through windows, each within the budget.
  std::uint64_t largest_reply = 0;
  for (std::int64_t i = 1; i < kSlots; ++i) {
    const auto received = d_.client_ep.stats().bytes_received;
    ASSERT_EQ(d_.client.get_field(big, FieldId{static_cast<std::uint32_t>(i)})
                  .as_int(),
              value(i));
    largest_reply = std::max(largest_reply,
                             d_.client_ep.stats().bytes_received - received);
  }
  EXPECT_LE(largest_reply, budget(d_.link) + 64);
  EXPECT_LT(d_.client_ep.stats().rpcs_sent - before.rpcs_sent, 40u);

  // After a yield the object is still read by slot: never whole.
  d_.client_ep.flush_pending();
  const auto received = d_.client_ep.stats().bytes_received;
  EXPECT_EQ(d_.client.get_field(big, FieldId{5}).as_int(), value(5));
  EXPECT_LE(d_.client_ep.stats().bytes_received - received,
            budget(d_.link) + 64);
}

TEST_F(ReadAheadTest, ReadInvokeAlternationSendsSingleOpFrames) {
  const ObjectRef big = remote_big_object(2000);
  const ObjectRef arr = remote_ints(64);
  const ObjectRef counter = remote_object("Counter");

  // Today's per-op frames, measured with read-ahead off.
  BatchPolicy per_op;
  per_op.read_ahead = false;
  d_.client_ep.set_batch_policy(per_op);
  EndpointStats s = d_.client_ep.stats();
  (void)d_.client.get_field(big, FieldId{0});
  const auto field_sent = d_.client_ep.stats().bytes_sent - s.bytes_sent;
  const auto field_received =
      d_.client_ep.stats().bytes_received - s.bytes_received;
  s = d_.client_ep.stats();
  (void)d_.client.array_get(arr, 0);
  const auto elem_sent = d_.client_ep.stats().bytes_sent - s.bytes_sent;
  const auto elem_received =
      d_.client_ep.stats().bytes_received - s.bytes_received;

  d_.client_ep.set_batch_policy(BatchPolicy{});
  (void)d_.client.get_field(big, FieldId{0});  // learns "oversized"
  d_.client.call(counter, "inc");
  for (std::int64_t i = 1; i < 40; ++i) {
    s = d_.client_ep.stats();
    EXPECT_EQ(d_.client.get_field(big, FieldId{static_cast<std::uint32_t>(i)})
                  .as_int(),
              value(i));
    EXPECT_EQ(d_.client_ep.stats().rpcs_sent - s.rpcs_sent, 1u);
    EXPECT_EQ(d_.client_ep.stats().bytes_sent - s.bytes_sent, field_sent);
    EXPECT_EQ(d_.client_ep.stats().bytes_received - s.bytes_received,
              field_received);
    s = d_.client_ep.stats();
    EXPECT_EQ(d_.client.array_get(arr, i).as_int(), value(i));
    EXPECT_EQ(d_.client_ep.stats().rpcs_sent - s.rpcs_sent, 1u);
    EXPECT_EQ(d_.client_ep.stats().bytes_sent - s.bytes_sent, elem_sent);
    EXPECT_EQ(d_.client_ep.stats().bytes_received - s.bytes_received,
              elem_received);
    d_.client.call(counter, "inc");
  }
  EXPECT_EQ(d_.client_ep.stats().snapshots_fetched, 0u);
}

// --- every yield point drops cached values --------------------------------

TEST_F(ReadAheadTest, ReadAfterOutgoingInvokeSeesPeerWrite) {
  const ObjectRef arr = remote_ints(256);
  const ObjectRef poker = remote_object("Poker");
  warm(arr, 32);
  const auto hits = d_.client_ep.stats().readahead_hits;
  EXPECT_EQ(d_.client.array_get(arr, 40).as_int(), value(40));
  EXPECT_EQ(d_.client_ep.stats().readahead_hits, hits + 1);

  d_.client.call(poker, "poke", {Value{arr}, Value{40}, Value{-5}});
  EXPECT_EQ(d_.client.array_get(arr, 40).as_int(), -5);
}

TEST_F(ReadAheadTest, ReadAfterOutgoingStaticInvokeSeesPeerWrite) {
  // Mirror image: the surrogate reads a client array, and the client writes
  // it inside a static native the surrogate invokes.
  const ObjectRef arr = d_.client.new_int_array(256);
  d_.client.add_root(arr);
  for (std::int64_t i = 0; i < 256; ++i) {
    d_.client.array_put(arr, i, Value{value(i)});
  }
  const ObjectRef remote{arr.id};
  d_.surrogate.install_stub(arr.id, d_.client.class_of(arr.id),
                            vm::ObjectKind::int_array);
  for (std::int64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(d_.surrogate.array_get(remote, i).as_int(), value(i));
  }
  const auto hits = d_.surrogate_ep.stats().readahead_hits;
  EXPECT_EQ(d_.surrogate.array_get(remote, 40).as_int(), value(40));
  EXPECT_EQ(d_.surrogate_ep.stats().readahead_hits, hits + 1);

  d_.surrogate.call_static("Sink", "poke",
                           {Value{remote}, Value{40}, Value{-6}});
  EXPECT_EQ(d_.surrogate.array_get(remote, 40).as_int(), -6);
}

TEST_F(ReadAheadTest, ReadInsideIncomingFrameSeesPeerWrite) {
  const ObjectRef arr = remote_ints(256);
  const ObjectRef poker = remote_object("Poker");
  const ObjectRef reader = d_.client.new_object("Reader");
  d_.client.add_root(reader);
  warm(arr, 32);

  // The surrogate writes in an invoke of its own, then calls the client,
  // whose code reads the element while serving that frame.
  const ObjectRef sur_arr{arr.id};
  d_.surrogate.call(ObjectRef{poker.id}, "poke",
                    {Value{sur_arr}, Value{40}, Value{-7}});
  d_.surrogate.install_stub(reader.id, d_.client.class_of(reader.id),
                            vm::ObjectKind::plain);
  EXPECT_EQ(d_.surrogate.call(ObjectRef{reader.id}, "get",
                              {Value{sur_arr}, Value{40}})
                .as_int(),
            -7);
}

TEST_F(ReadAheadTest, ReadAfterServingAFrameSeesPeerWrite) {
  const ObjectRef arr = remote_ints(256);
  const ObjectRef poker = remote_object("Poker");
  const ObjectRef reader = d_.client.new_object("Reader");
  d_.client.add_root(reader);

  // The client scans while serving a surrogate call (its window is built
  // inside the frame); the surrogate then writes, and the client resumes.
  d_.surrogate.install_stub(reader.id, d_.client.class_of(reader.id),
                            vm::ObjectKind::plain);
  const ObjectRef sur_arr{arr.id};
  (void)d_.surrogate.call(ObjectRef{reader.id}, "sum",
                          {Value{sur_arr}, Value{0}, Value{32}});
  d_.surrogate.call(ObjectRef{poker.id}, "poke",
                    {Value{sur_arr}, Value{40}, Value{-8}});
  EXPECT_EQ(d_.client.array_get(arr, 40).as_int(), -8);
}

TEST_F(ReadAheadTest, ReadAfterFlushSeesPeerWrite) {
  const ObjectRef arr = remote_ints(256);
  const ObjectRef poker = remote_object("Poker");
  warm(arr, 32);
  d_.surrogate.call(ObjectRef{poker.id}, "poke",
                    {Value{ObjectRef{arr.id}}, Value{40}, Value{-9}});
  d_.client_ep.flush_pending();
  EXPECT_EQ(d_.client.array_get(arr, 40).as_int(), -9);
}

TEST_F(ReadAheadTest, ReadAfterMigrationSeesPeerWrite) {
  const ObjectRef arr = remote_ints(256);
  const ObjectRef poker = remote_object("Poker");
  warm(arr, 32);
  d_.surrogate.call(ObjectRef{poker.id}, "poke",
                    {Value{ObjectRef{arr.id}}, Value{40}, Value{-10}});
  const ObjectRef pair = d_.client.new_object("Pair");
  d_.client.add_root(pair);
  d_.offload(pair);
  EXPECT_EQ(d_.client.array_get(arr, 40).as_int(), -10);
}

TEST_F(ReadAheadTest, ReadAfterReconnectSeesPeerWrite) {
  const ObjectRef arr = remote_ints(256);
  const ObjectRef poker = remote_object("Poker");
  warm(arr, 32);
  d_.client_ep.detach_partitioned();
  d_.surrogate.call(ObjectRef{poker.id}, "poke",
                    {Value{ObjectRef{arr.id}}, Value{40}, Value{-11}});
  Endpoint::connect(d_.client_ep, d_.surrogate_ep);
  EXPECT_EQ(d_.client.array_get(arr, 40).as_int(), -11);
}

TEST_F(ReadAheadTest, ReadAfterReadAheadToggleSeesPeerWrite) {
  const ObjectRef arr = remote_ints(256);
  const ObjectRef poker = remote_object("Poker");
  warm(arr, 32);
  BatchPolicy no_read_ahead;
  no_read_ahead.read_ahead = false;
  d_.client_ep.set_batch_policy(no_read_ahead);
  d_.surrogate.call(ObjectRef{poker.id}, "poke",
                    {Value{ObjectRef{arr.id}}, Value{40}, Value{-12}});
  d_.client_ep.set_batch_policy(BatchPolicy{});
  EXPECT_EQ(d_.client.array_get(arr, 40).as_int(), -12);
}

// --- stores keep live windows coherent ------------------------------------

// Refuses every deferral, so stores write through eagerly.
class EagerOracle final : public analysis::BatchSafetyOracle {
 public:
  bool store_deferrable(ClassId, analysis::StoreKind,
                        std::uint32_t) const noexcept override {
    return false;
  }
  bool stores_commute(ClassId, analysis::StoreKind, std::uint32_t, ClassId,
                      analysis::StoreKind, std::uint32_t)
      const noexcept override {
    return false;
  }
  bool invoke_accepts_riders(ClassId, MethodId) const noexcept override {
    return true;
  }
  bool replay_safe(ClassId, MethodId) const noexcept override { return false; }
  bool prefetch_eligible(ClassId) const noexcept override { return true; }
};

TEST_F(ReadAheadTest, DeferredAndEagerStoresKeepWindowsCoherent) {
  const ObjectRef arr = remote_ints(256);
  const ObjectRef big = remote_big_object(2000);
  warm(arr, 32);
  for (std::uint32_t f = 0; f < 32; ++f) {
    (void)d_.client.get_field(big, FieldId{f});
  }

  // Deferred: the store waits in the queue, the window answers with it.
  const EndpointStats before = d_.client_ep.stats();
  d_.client.array_put(arr, 40, Value{-1});
  d_.client.put_field(big, FieldId{40}, Value{"deferred"});
  EXPECT_EQ(d_.client_ep.pending_ops(), 2u);
  EXPECT_EQ(d_.client.array_get(arr, 40).as_int(), -1);
  EXPECT_EQ(d_.client.get_field(big, FieldId{40}).as_str(), "deferred");
  EXPECT_EQ(d_.client_ep.stats().rpcs_sent, before.rpcs_sent);

  // Eager: the store is written through at once; the window follows it.
  EagerOracle eager;
  d_.client_ep.set_batch_safety(&eager);
  warm(arr, 32);
  for (std::uint32_t f = 0; f < 32; ++f) {
    (void)d_.client.get_field(big, FieldId{f});
  }
  const auto sent = d_.client_ep.stats().rpcs_sent;
  d_.client.array_put(arr, 41, Value{-2});
  d_.client.put_field(big, FieldId{41}, Value{"eager"});
  EXPECT_EQ(d_.client_ep.pending_ops(), 0u);
  EXPECT_EQ(d_.client_ep.stats().rpcs_sent, sent + 2);
  EXPECT_EQ(d_.client.array_get(arr, 41).as_int(), -2);
  EXPECT_EQ(d_.client.get_field(big, FieldId{41}).as_str(), "eager");
  EXPECT_EQ(d_.client_ep.stats().rpcs_sent, sent + 2);
  d_.client_ep.set_batch_safety(nullptr);

  d_.client_ep.flush_pending();
  EXPECT_EQ(d_.surrogate.raw_array_get(arr.id, 40).as_int(), -1);
  EXPECT_EQ(d_.surrogate.raw_array_get(arr.id, 41).as_int(), -2);
  EXPECT_EQ(d_.surrogate.raw_get_field(big.id, FieldId{40}).as_str(),
            "deferred");
  EXPECT_EQ(d_.surrogate.raw_get_field(big.id, FieldId{41}).as_str(), "eager");
}

TEST_F(ReadAheadTest, CharStoresKeepWindowsCoherent) {
  const ObjectRef chars =
      d_.client.new_char_array("abcdefghijklmnopqrstuvwxyz");
  d_.client.add_root(chars);
  d_.offload(chars);
  for (std::int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(d_.client.array_get(chars, i).as_int(), 'a' + i);
  }
  // An element store reads back as the unsigned char the peer will hold.
  d_.client.array_put(chars, 9, Value{-56});
  EXPECT_EQ(d_.client.array_get(chars, 9).as_int(), 200);
  // A bulk write over the window is seen by the next element read.
  d_.client.chars_write(chars, 10, "XYZ");
  EXPECT_EQ(d_.client.array_get(chars, 11).as_int(), 'Y');
  EXPECT_EQ(d_.client.array_get(chars, 14).as_int(), 'o');
  d_.client_ep.flush_pending();
  EXPECT_EQ(d_.surrogate.raw_chars_read(chars.id, 9, 4),
            std::string("\xC8XYZ"));
}

// --- windowed reads under message chaos -----------------------------------

struct Outcome {
  std::int64_t sum = 0;
  std::int64_t count = 0;
  std::vector<std::int64_t> elems;
  std::vector<std::int64_t> fields;
  std::uint64_t windows = 0;
  netsim::LinkStats link;
};

// Scans an array at three strides and an oversized object forward, with
// invokes and stores interleaved, and returns everything the run computed.
Outcome run_scans(const netsim::FaultPlan& plan) {
  Duo d;
  RetryPolicy patient;
  patient.max_attempts = 16;
  d.client_ep.set_retry_policy(patient);
  d.surrogate_ep.set_retry_policy(patient);
  constexpr std::int64_t kLen = 1024;
  constexpr std::int64_t kSlots = 600;
  const ObjectRef arr = d.client.new_int_array(kLen);
  const ObjectRef big = d.client.new_ref_array(kSlots);
  const ObjectRef counter = d.client.new_object("Counter");
  for (const ObjectRef r : {arr, big, counter}) d.client.add_root(r);
  for (std::int64_t i = 0; i < kLen; ++i) d.client.array_put(arr, i, Value{i});
  for (std::int64_t i = 0; i < kSlots; ++i) {
    d.client.put_field(big, FieldId{static_cast<std::uint32_t>(i)},
                       Value{i * 3});
  }
  const ObjectId ids[] = {arr.id, big.id, counter.id};
  d.client_ep.migrate_objects(ids);
  d.link.set_fault_plan(plan);

  Outcome out;
  std::int64_t incs = 0;
  for (std::int64_t round = 0; round < 9; ++round) {
    const std::int64_t stride = round % 3 + 1;
    for (std::int64_t i = round; i < kLen; i += stride) {
      out.sum += d.client.array_get(arr, i).as_int();
      if (i % 97 == 0) {
        d.client.call(counter, "inc");
        incs += 1;
      }
    }
    for (std::uint32_t f = 0; f < kSlots; ++f) {
      out.sum += d.client.get_field(big, FieldId{f}).as_int();
    }
    d.client.array_put(arr, round * 5, Value{-round});
    d.client.put_field(big, FieldId{static_cast<std::uint32_t>(round)},
                       Value{round * 11});
  }
  out.count = d.client.call(counter, "get").as_int();
  EXPECT_EQ(out.count, incs);  // every invoke ran exactly once
  d.client_ep.flush_pending();
  d.link.set_fault_plan(netsim::FaultPlan{});
  for (std::int64_t i = 0; i < kLen; ++i) {
    out.elems.push_back(d.surrogate.raw_array_get(arr.id, i).as_int());
  }
  for (std::uint32_t f = 0; f < kSlots; ++f) {
    out.fields.push_back(
        d.surrogate.raw_get_field(big.id, FieldId{f}).as_int());
  }
  out.windows = d.client_ep.stats().snapshots_fetched;
  out.link = d.link.stats();
  return out;
}

TEST(ReadAheadChaosTest, WindowedReadsUnderChaosMatchAFaultFreeRun) {
  const Outcome clean = run_scans(netsim::FaultPlan{});
  EXPECT_GT(clean.windows, 0u);

  netsim::FaultPlan chaos;
  chaos.drop_probability = 0.02;
  chaos.reply_drop_probability = 0.02;
  chaos.corrupt_probability = 0.02;
  chaos.duplicate_probability = 0.02;
  chaos.reorder_probability = 0.02;
  const Outcome rough = run_scans(chaos);
  EXPECT_GT(rough.link.messages_dropped, 0u);
  EXPECT_GT(rough.link.messages_corrupted, 0u);
  EXPECT_GT(rough.link.messages_duplicated, 0u);
  EXPECT_GT(rough.link.messages_reordered, 0u);
  EXPECT_GT(rough.windows, 0u);

  EXPECT_EQ(rough.sum, clean.sum);
  EXPECT_EQ(rough.count, clean.count);
  EXPECT_EQ(rough.elems, clean.elems);
  EXPECT_EQ(rough.fields, clean.fields);
}

}  // namespace
}  // namespace aide::rpc
