// Tests for the wire codec: value round-trips through a fake reference
// translator, object header/payload round-trips for all three object shapes,
// and cycle tolerance via the two-section migration encoding.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "rpc/serializer.hpp"

namespace aide::rpc {
namespace {

using vm::ObjectKind;
using vm::ObjectRef;
using vm::Value;

// Identity-style translator that records traffic.
class FakeTranslator : public RefTranslator {
 public:
  WireRef translate_out(ObjectRef ref) override {
    ++outs;
    WireRef wire;
    wire.owner = NodeId{1};
    wire.handle = ExportHandle{ref.id.value() + 1000};
    wire.id = ref.id;
    wire.cls = ClassId{7};
    wire.kind = ObjectKind::plain;
    return wire;
  }
  ObjectRef translate_in(const WireRef& wire) override {
    ++ins;
    EXPECT_EQ(wire.handle.value(), wire.id.value() + 1000);
    return ObjectRef{wire.id};
  }
  int outs = 0, ins = 0;
};

Value roundtrip(const Value& v, FakeTranslator& tr) {
  ByteWriter w;
  write_value(w, v, tr);
  ByteReader r(w.data());
  return read_value(r, tr);
}

TEST(WireValueTest, ScalarRoundTrips) {
  FakeTranslator tr;
  EXPECT_TRUE(roundtrip(Value{}, tr).is_nil());
  EXPECT_EQ(roundtrip(Value{true}, tr).as_bool(), true);
  EXPECT_EQ(roundtrip(Value{false}, tr).as_bool(), false);
  EXPECT_EQ(roundtrip(Value{std::int64_t{-123456789}}, tr).as_int(),
            -123456789);
  EXPECT_DOUBLE_EQ(roundtrip(Value{2.718}, tr).as_real(), 2.718);
  EXPECT_EQ(roundtrip(Value{"wire"}, tr).as_str(), "wire");
}

TEST(WireValueTest, EncodedSizeMatchesWrittenBytesWithoutTranslating) {
  FakeTranslator tr;
  const Value values[] = {Value{},
                          Value{true},
                          Value{std::int64_t{-7}},
                          Value{1.5},
                          Value{""},
                          Value{"a longer string"},
                          Value{vm::kNullRef},
                          Value{ObjectRef{ObjectId{42}}}};
  for (const Value& v : values) {
    const int outs = tr.outs;
    const std::size_t predicted = encoded_size(v);
    EXPECT_EQ(tr.outs, outs);  // sizing exports nothing
    ByteWriter w;
    write_value(w, v, tr);
    EXPECT_EQ(predicted, w.size());
  }
}

TEST(WireValueTest, NullRefRoundTripsWithoutTranslation) {
  FakeTranslator tr;
  const Value v = roundtrip(Value{vm::kNullRef}, tr);
  EXPECT_TRUE(v.is_ref());
  EXPECT_TRUE(v.as_ref().is_null());
  EXPECT_EQ(tr.outs, 0);
  EXPECT_EQ(tr.ins, 0);
}

TEST(WireValueTest, RefGoesThroughTranslator) {
  FakeTranslator tr;
  const Value v = roundtrip(Value{ObjectRef{ObjectId{55}}}, tr);
  EXPECT_EQ(v.as_ref().id, ObjectId{55});
  EXPECT_EQ(tr.outs, 1);
  EXPECT_EQ(tr.ins, 1);
}

TEST(WireValueTest, RandomValueFuzzRoundTrip) {
  FakeTranslator tr;
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    Value v;
    switch (rng.next_below(6)) {
      case 0: v = Value{}; break;
      case 1: v = Value{rng.next_bool(0.5)}; break;
      case 2: v = Value{static_cast<std::int64_t>(rng.next_u64())}; break;
      case 3: v = Value{rng.next_double() * 1e9}; break;
      case 4: v = Value{ObjectRef{ObjectId{rng.next_u64() >> 16}}}; break;
      case 5: {
        std::string s(rng.next_below(64), 'a');
        for (auto& c : s) c = static_cast<char>('a' + rng.next_below(26));
        v = Value{std::move(s)};
        break;
      }
    }
    EXPECT_EQ(roundtrip(v, tr), v);
  }
}

TEST(WireRefTest, FieldsRoundTrip) {
  WireRef ref;
  ref.owner = NodeId{2};
  ref.handle = ExportHandle{88};
  ref.id = ObjectId{0x0001000000000007ULL};
  ref.cls = ClassId{14};
  ref.kind = ObjectKind::char_array;

  ByteWriter w;
  write_wire_ref(w, ref);
  ByteReader r(w.data());
  const WireRef got = read_wire_ref(r);
  EXPECT_EQ(got.owner, ref.owner);
  EXPECT_EQ(got.handle, ref.handle);
  EXPECT_EQ(got.id, ref.id);
  EXPECT_EQ(got.cls, ref.cls);
  EXPECT_EQ(got.kind, ref.kind);
}

vm::Object make_object(ObjectKind kind) {
  vm::Object obj;
  obj.id = ObjectId{42};
  obj.cls = ClassId{3};
  obj.kind = kind;
  switch (kind) {
    case ObjectKind::plain:
      obj.fields = {Value{1}, Value{"text"}, Value{ObjectRef{ObjectId{9}}},
                    Value{}};
      break;
    case ObjectKind::int_array:
      obj.ints = {1, -2, 3000000000LL};
      break;
    case ObjectKind::char_array:
      obj.chars = "payload bytes";
      break;
  }
  return obj;
}

class ObjectCodecTest : public ::testing::TestWithParam<ObjectKind> {};

TEST_P(ObjectCodecTest, HeaderAndPayloadRoundTrip) {
  FakeTranslator tr;
  const vm::Object src = make_object(GetParam());

  ByteWriter w;
  write_object_header(w, src);
  write_object_payload(w, src, tr);

  ByteReader r(w.data());
  const ObjectHeader h = read_object_header(r);
  EXPECT_EQ(h.id, src.id);
  EXPECT_EQ(h.cls, src.cls);
  EXPECT_EQ(h.kind, src.kind);

  vm::Object dst;
  dst.id = h.id;
  dst.cls = h.cls;
  dst.kind = h.kind;
  dst.fields.assign(h.field_count, Value{});
  dst.ints.assign(static_cast<std::size_t>(h.ints_len), 0);
  dst.chars.assign(static_cast<std::size_t>(h.chars_len), '\0');
  read_object_payload(r, dst, tr);

  EXPECT_EQ(dst.fields, src.fields);
  EXPECT_EQ(dst.ints, src.ints);
  EXPECT_EQ(dst.chars, src.chars);
  EXPECT_EQ(dst.size_bytes(), src.size_bytes());
}

INSTANTIATE_TEST_SUITE_P(AllShapes, ObjectCodecTest,
                         ::testing::Values(ObjectKind::plain,
                                           ObjectKind::int_array,
                                           ObjectKind::char_array));

TEST(ObjectCodecTest, TwoSectionEncodingToleratesCycles) {
  // Objects A and B reference each other; headers first, then payloads.
  FakeTranslator tr;
  vm::Object a = make_object(ObjectKind::plain);
  a.id = ObjectId{1};
  a.fields = {Value{ObjectRef{ObjectId{2}}}};
  vm::Object b = make_object(ObjectKind::plain);
  b.id = ObjectId{2};
  b.fields = {Value{ObjectRef{ObjectId{1}}}};

  ByteWriter w;
  write_object_header(w, a);
  write_object_header(w, b);
  write_object_payload(w, a, tr);
  write_object_payload(w, b, tr);

  ByteReader r(w.data());
  const ObjectHeader ha = read_object_header(r);
  const ObjectHeader hb = read_object_header(r);
  vm::Object da, db;
  da.kind = ha.kind;
  da.fields.assign(ha.field_count, Value{});
  db.kind = hb.kind;
  db.fields.assign(hb.field_count, Value{});
  read_object_payload(r, da, tr);
  read_object_payload(r, db, tr);
  EXPECT_EQ(da.fields[0].as_ref().id, ObjectId{2});
  EXPECT_EQ(db.fields[0].as_ref().id, ObjectId{1});
  EXPECT_TRUE(r.exhausted());
}

// --- seeded fuzz: nested object graphs ---------------------------------------

TEST(ObjectCodecTest, NestedObjectGraphFuzzRoundTrip) {
  Rng rng(0xB47C4);
  for (int round = 0; round < 40; ++round) {
    FakeTranslator tr;
    const int n = 2 + static_cast<int>(rng.next_below(8));

    // Random graph over n objects; plain objects reference arbitrary peers
    // (self-references and cycles included), arrays carry random payloads.
    std::vector<vm::Object> graph(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      vm::Object& o = graph[static_cast<std::size_t>(i)];
      o.id = ObjectId{100 + static_cast<std::uint64_t>(i)};
      o.cls = ClassId{1 + static_cast<std::uint32_t>(rng.next_below(5))};
      switch (rng.next_below(3)) {
        case 0: {
          o.kind = ObjectKind::plain;
          const auto fields = rng.next_below(6);
          for (std::uint64_t f = 0; f < fields; ++f) {
            switch (rng.next_below(5)) {
              case 0: o.fields.emplace_back(); break;
              case 1: o.fields.emplace_back(rng.next_bool(0.5)); break;
              case 2:
                o.fields.emplace_back(
                    static_cast<std::int64_t>(rng.next_u64()));
                break;
              case 3:
                o.fields.emplace_back(ObjectRef{ObjectId{
                    100 + rng.next_below(static_cast<std::uint64_t>(n))}});
                break;
              case 4: {
                std::string s(rng.next_below(40), ' ');
                for (auto& c : s) c = static_cast<char>('a' + rng.next_below(26));
                o.fields.emplace_back(std::move(s));
                break;
              }
            }
          }
          break;
        }
        case 1: {
          o.kind = ObjectKind::int_array;
          const auto len = rng.next_below(32);
          for (std::uint64_t j = 0; j < len; ++j) {
            o.ints.push_back(static_cast<std::int64_t>(rng.next_u64()));
          }
          break;
        }
        case 2: {
          o.kind = ObjectKind::char_array;
          o.chars.assign(rng.next_below(64), '\0');
          for (auto& c : o.chars) {
            c = static_cast<char>(rng.next_below(256));
          }
          break;
        }
      }
    }

    // Two-section encoding (all headers, then all payloads), as migration
    // ships it, so the reference cycles resolve on decode.
    ByteWriter w;
    for (const vm::Object& o : graph) write_object_header(w, o);
    for (const vm::Object& o : graph) write_object_payload(w, o, tr);

    ByteReader r(w.data());
    std::vector<vm::Object> decoded(graph.size());
    for (vm::Object& d : decoded) {
      const ObjectHeader h = read_object_header(r);
      d.id = h.id;
      d.cls = h.cls;
      d.kind = h.kind;
      d.fields.assign(h.field_count, Value{});
      d.ints.assign(static_cast<std::size_t>(h.ints_len), 0);
      d.chars.assign(static_cast<std::size_t>(h.chars_len), '\0');
    }
    for (vm::Object& d : decoded) read_object_payload(r, d, tr);
    EXPECT_TRUE(r.exhausted());

    for (std::size_t i = 0; i < graph.size(); ++i) {
      SCOPED_TRACE("round " + std::to_string(round) + " object " +
                   std::to_string(i));
      EXPECT_EQ(decoded[i].id, graph[i].id);
      EXPECT_EQ(decoded[i].cls, graph[i].cls);
      EXPECT_EQ(decoded[i].kind, graph[i].kind);
      EXPECT_EQ(decoded[i].fields, graph[i].fields);
      EXPECT_EQ(decoded[i].ints, graph[i].ints);
      EXPECT_EQ(decoded[i].chars, graph[i].chars);
    }
  }
}

// --- seeded fuzz: multi-op frames --------------------------------------------

// Builds a random multi-op batch payload ([u8 tag][u32 count][sections...])
// and returns the section contents alongside the framed bytes.
struct FuzzFrame {
  std::vector<std::vector<std::uint8_t>> sections;
  std::vector<std::uint8_t> frame;
  std::uint32_t epoch = 0;
  std::uint64_t seq = 0;
};

FuzzFrame make_fuzz_frame(Rng& rng) {
  FuzzFrame f;
  f.epoch = static_cast<std::uint32_t>(rng.next_below(1 << 20));
  f.seq = rng.next_u64() >> 8;
  const auto count = 1 + rng.next_below(8);
  // The batch opcode byte (opaque to the framing layer), then the op count.
  // The count is encoded in its own writer and appended whole: GCC 12 reads
  // a u32 appended straight after the first push_back into a fresh vector as
  // a write past its one-byte buffer (-Warray-bounds).
  ByteWriter w;
  w.write_u8(16);
  ByteWriter count_bytes;
  count_bytes.write_u32(static_cast<std::uint32_t>(count));
  w.write_bytes(count_bytes.data());
  for (std::uint64_t i = 0; i < count; ++i) {
    std::vector<std::uint8_t> op(rng.next_below(100));
    for (auto& b : op) b = static_cast<std::uint8_t>(rng.next_below(256));
    write_op_section(w, op);
    f.sections.push_back(std::move(op));
  }
  f.frame = make_frame(f.epoch, f.seq, w.data());
  return f;
}

TEST(FrameCodecTest, MultiOpFrameFuzzRoundTrip) {
  Rng rng(0xF7A3E);
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const FuzzFrame f = make_fuzz_frame(rng);

    const auto view = parse_frame(f.frame);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->epoch, f.epoch);
    EXPECT_EQ(view->seq, f.seq);

    ByteReader r(view->payload);
    EXPECT_EQ(r.read_u8(), 16);
    ASSERT_EQ(r.read_u32(), f.sections.size());
    for (const auto& op : f.sections) {
      const auto got = read_op_section(r);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), op.begin(), op.end()));
    }
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(FrameCodecTest, TruncatedFramesAreRejected) {
  Rng rng(0x7A11);
  const FuzzFrame f = make_fuzz_frame(rng);
  // Every proper prefix — headerless stumps and CRC-orphaned payloads alike
  // — must be rejected, never mis-decoded.
  for (std::size_t len = 0; len < f.frame.size(); ++len) {
    EXPECT_FALSE(
        parse_frame(std::span(f.frame.data(), len)).has_value())
        << "prefix of " << len << " bytes accepted";
  }
}

TEST(FrameCodecTest, BitFlippedFramesAreRejected) {
  Rng rng(0xF11B);
  const FuzzFrame f = make_fuzz_frame(rng);
  ASSERT_TRUE(parse_frame(f.frame).has_value());
  // CRC32 catches every single-bit error, wherever it lands: header fields
  // (including the stored CRC itself), batch count, or op payload.
  for (std::size_t byte = 0; byte < f.frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto copy = f.frame;
      copy[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(parse_frame(copy).has_value())
          << "flip at byte " << byte << " bit " << bit << " accepted";
    }
  }
}

TEST(FrameCodecTest, TruncatedOpSectionIsRejected) {
  ByteWriter w;
  const std::vector<std::uint8_t> op = {1, 2, 3, 4, 5, 6, 7, 8};
  write_op_section(w, op);
  const auto& bytes = w.data();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ByteReader r(std::span(bytes.data(), len));
    EXPECT_THROW((void)read_op_section(r), std::out_of_range)
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(ValueTest, WireSizesMatchSpec) {
  EXPECT_EQ(Value{}.wire_size(), 1u);
  EXPECT_EQ(Value{true}.wire_size(), 1u);
  EXPECT_EQ(Value{1}.wire_size(), 8u);
  EXPECT_EQ(Value{1.0}.wire_size(), 8u);
  EXPECT_EQ(Value{ObjectRef{}}.wire_size(), 8u);
  EXPECT_EQ(Value{"abcd"}.wire_size(), 8u);  // 4 length + 4 content
}

}  // namespace
}  // namespace aide::rpc
