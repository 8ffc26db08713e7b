#include "rpc/serializer.hpp"

#include <cstring>

#include "common/crc32.hpp"
#include "common/error.hpp"

namespace aide::rpc {

std::vector<std::uint8_t> make_frame(std::uint32_t epoch, std::uint64_t seq,
                                     std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame(kFrameHeaderSize + payload.size());
  std::memcpy(frame.data() + 4, &epoch, sizeof epoch);
  std::memcpy(frame.data() + 8, &seq, sizeof seq);
  if (!payload.empty()) {
    std::memcpy(frame.data() + kFrameHeaderSize, payload.data(),
                payload.size());
  }
  const std::uint32_t crc =
      crc32(std::span<const std::uint8_t>(frame).subspan(4));
  std::memcpy(frame.data(), &crc, sizeof crc);
  return frame;
}

std::optional<FrameView> parse_frame(
    std::span<const std::uint8_t> frame) noexcept {
  if (frame.size() < kFrameHeaderSize) return std::nullopt;
  std::uint32_t crc = 0;
  std::memcpy(&crc, frame.data(), sizeof crc);
  if (crc32(frame.subspan(4)) != crc) return std::nullopt;
  FrameView view;
  std::memcpy(&view.epoch, frame.data() + 4, sizeof view.epoch);
  std::memcpy(&view.seq, frame.data() + 8, sizeof view.seq);
  view.payload = frame.subspan(kFrameHeaderSize);
  return view;
}

namespace {
enum class Tag : std::uint8_t {
  nil = 0,
  boolean = 1,
  integer = 2,
  real = 3,
  ref = 4,
  str = 5,
  null_ref = 6,
};
}  // namespace

void write_wire_ref(ByteWriter& w, const WireRef& ref) {
  w.write_u32(ref.owner.value());
  w.write_u64(ref.handle.value());
  w.write_u64(ref.id.value());
  w.write_u32(ref.cls.value());
  w.write_u8(static_cast<std::uint8_t>(ref.kind));
}

WireRef read_wire_ref(ByteReader& r) {
  WireRef ref;
  ref.owner = NodeId{r.read_u32()};
  ref.handle = ExportHandle{r.read_u64()};
  ref.id = ObjectId{r.read_u64()};
  ref.cls = ClassId{r.read_u32()};
  ref.kind = static_cast<vm::ObjectKind>(r.read_u8());
  return ref;
}

void write_op_section(ByteWriter& w, std::span<const std::uint8_t> op) {
  w.write_u32(static_cast<std::uint32_t>(op.size()));
  w.write_bytes(op);
}

std::span<const std::uint8_t> read_op_section(ByteReader& r) {
  const auto len = r.read_u32();
  return r.read_bytes(len);
}

void write_value(ByteWriter& w, const vm::Value& v, RefTranslator& tr) {
  if (v.is_nil()) {
    w.write_u8(static_cast<std::uint8_t>(Tag::nil));
  } else if (v.is_bool()) {
    w.write_u8(static_cast<std::uint8_t>(Tag::boolean));
    w.write_u8(v.as_bool() ? 1 : 0);
  } else if (v.is_int()) {
    w.write_u8(static_cast<std::uint8_t>(Tag::integer));
    w.write_i64(v.as_int());
  } else if (v.is_real()) {
    w.write_u8(static_cast<std::uint8_t>(Tag::real));
    w.write_f64(v.as_real());
  } else if (v.is_ref()) {
    if (v.as_ref().is_null()) {
      w.write_u8(static_cast<std::uint8_t>(Tag::null_ref));
    } else {
      w.write_u8(static_cast<std::uint8_t>(Tag::ref));
      write_wire_ref(w, tr.translate_out(v.as_ref()));
    }
  } else {
    w.write_u8(static_cast<std::uint8_t>(Tag::str));
    w.write_string(v.as_str());
  }
}

std::size_t encoded_size(const vm::Value& v) noexcept {
  constexpr std::size_t kTag = 1;
  constexpr std::size_t kWireRef = 4 + 8 + 8 + 4 + 1;
  if (v.is_nil()) return kTag;
  if (v.is_bool()) return kTag + 1;
  if (v.is_int() || v.is_real()) return kTag + 8;
  if (v.is_ref()) return v.as_ref().is_null() ? kTag : kTag + kWireRef;
  return kTag + 4 + v.as_str().size();
}

vm::Value read_value(ByteReader& r, RefTranslator& tr) {
  const auto tag = static_cast<Tag>(r.read_u8());
  switch (tag) {
    case Tag::nil: return vm::Value{};
    case Tag::boolean: return vm::Value{r.read_u8() != 0};
    case Tag::integer: return vm::Value{r.read_i64()};
    case Tag::real: return vm::Value{r.read_f64()};
    case Tag::ref: return vm::Value{tr.translate_in(read_wire_ref(r))};
    case Tag::str: return vm::Value{r.read_string()};
    case Tag::null_ref: return vm::Value{vm::kNullRef};
  }
  throw VmError(VmErrorCode::type_mismatch, "bad wire value tag");
}

void write_object_header(ByteWriter& w, const vm::Object& obj) {
  w.write_u64(obj.id.value());
  w.write_u32(obj.cls.value());
  w.write_u8(static_cast<std::uint8_t>(obj.kind));
  w.write_i64(static_cast<std::int64_t>(obj.ints.size()));
  w.write_i64(static_cast<std::int64_t>(obj.chars.size()));
  w.write_u32(static_cast<std::uint32_t>(obj.fields.size()));
}

ObjectHeader read_object_header(ByteReader& r) {
  ObjectHeader h;
  h.id = ObjectId{r.read_u64()};
  h.cls = ClassId{r.read_u32()};
  h.kind = static_cast<vm::ObjectKind>(r.read_u8());
  h.ints_len = r.read_i64();
  h.chars_len = r.read_i64();
  h.field_count = r.read_u32();
  return h;
}

void write_object_payload(ByteWriter& w, const vm::Object& obj,
                          RefTranslator& tr) {
  switch (obj.kind) {
    case vm::ObjectKind::plain:
      for (const auto& f : obj.fields) write_value(w, f, tr);
      break;
    case vm::ObjectKind::int_array:
      for (const auto i : obj.ints) w.write_i64(i);
      break;
    case vm::ObjectKind::char_array:
      w.write_string(obj.chars);
      break;
  }
}

void read_object_payload(ByteReader& r, vm::Object& obj, RefTranslator& tr) {
  switch (obj.kind) {
    case vm::ObjectKind::plain:
      for (auto& f : obj.fields) f = read_value(r, tr);
      break;
    case vm::ObjectKind::int_array:
      for (auto& i : obj.ints) i = r.read_i64();
      break;
    case vm::ObjectKind::char_array:
      obj.chars = r.read_string();
      break;
  }
  // The payload (string fields in particular) was rewritten wholesale.
  obj.invalidate_size_cache();
}

}  // namespace aide::rpc
