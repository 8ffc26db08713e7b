#include "emul/trace.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace aide::emul {

std::uint32_t& Trace::slot_for(std::uint64_t v) {
  const std::uint64_t node = v >> 48;
  const std::uint64_t seq = v & kSeqMask;
  if (home_node_ == kNoHome) home_node_ = node;
  if (node == home_node_ && seq < kDenseLimit) {
    if (seq >= dense_.size()) dense_.resize(seq + 1);
    return dense_[seq];
  }
  return foreign_[v];
}

void Trace::reindex() {
  for (; indexed_ < objects.size(); ++indexed_) {
    const ObjectId id = objects[indexed_];
    if (id.valid()) slot_for(id.value()) = static_cast<std::uint32_t>(indexed_);
  }
}

std::uint32_t Trace::intern_slow(ObjectId id) {
  reindex();  // catch up with objects stored while the index was dropped
  std::uint32_t& slot = slot_for(id.value());
  if (slot == 0) {
    if (objects.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("trace: object table full");
    }
    slot = static_cast<std::uint32_t>(objects.size());
    objects.push_back(id);
    indexed_ = objects.size();
  }
  return slot;
}

TraceRecord Trace::at(std::size_t i) const {
  const TraceEvent& e = events.at(i);
  TraceRecord r;
  r.type = e.type;
  r.flags = static_cast<std::uint8_t>(e.flags & kRecordFlags);
  r.t = e.t;
  r.cls_a = e.cls_a;
  r.cls_b = e.cls_b;
  r.obj_a = objects[e.obj_a];
  r.obj_b = objects[e.obj_b];
  r.method = e.method;
  r.bytes = e.bytes;
  if ((e.flags & kFlagAux) != 0) {
    const auto it = std::lower_bound(
        aux.begin(), aux.end(), i,
        [](const TraceAux& a, std::size_t ix) { return a.event < ix; });
    r.aux1 = it->aux1;
    r.aux2 = it->aux2;
  }
  return r;
}

void Trace::clear() noexcept {
  events.clear();
  objects.clear();
  aux.clear();
  drop_index();
}

void Trace::drop_index() noexcept {
  std::vector<std::uint32_t>().swap(dense_);
  std::unordered_map<std::uint64_t, std::uint32_t>().swap(foreign_);
  home_node_ = kNoHome;
  indexed_ = 0;
}

std::size_t Trace::index_bytes() const noexcept {
  return dense_.capacity() * sizeof(std::uint32_t) +
         foreign_.size() * sizeof(decltype(foreign_)::value_type);
}

void Trace::save_csv(std::ostream& os) const {
  os << "type,flags,t,cls_a,cls_b,obj_a,obj_b,method,bytes,aux1,aux2\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceRecord e = at(i);
    os << static_cast<int>(e.type) << ',' << static_cast<int>(e.flags) << ','
       << e.t << ',' << e.cls_a.value() << ',' << e.cls_b.value() << ','
       << e.obj_a.value() << ',' << e.obj_b.value() << ','
       << e.method.value() << ',' << e.bytes << ',' << e.aux1 << ','
       << e.aux2 << '\n';
  }
}

Trace Trace::load_csv(std::istream& is) {
  Trace trace;
  std::string line;
  if (!std::getline(is, line)) return trace;  // header (or empty)
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    TraceRecord e;
    std::uint64_t v = 0;
    char comma = 0;
    auto read_u64 = [&](std::uint64_t& out) {
      if (!(ls >> out)) throw std::runtime_error("trace csv: bad field");
      ls >> comma;
    };
    auto read_i64 = [&](std::int64_t& out) {
      if (!(ls >> out)) throw std::runtime_error("trace csv: bad field");
      ls >> comma;
    };
    read_u64(v);
    if (v > static_cast<std::uint64_t>(TraceEventType::gc)) {
      throw std::runtime_error("trace csv: unknown event type " +
                               std::to_string(v));
    }
    e.type = static_cast<TraceEventType>(v);
    read_u64(v);
    if ((v & ~std::uint64_t{kRecordFlags}) != 0) {
      throw std::runtime_error("trace csv: undefined flag bits in " +
                               std::to_string(v));
    }
    e.flags = static_cast<std::uint8_t>(v);
    read_i64(e.t);
    read_u64(v);
    e.cls_a = ClassId{static_cast<std::uint32_t>(v)};
    read_u64(v);
    e.cls_b = ClassId{static_cast<std::uint32_t>(v)};
    read_u64(v);
    e.obj_a = ObjectId{v};
    read_u64(v);
    e.obj_b = ObjectId{v};
    read_u64(v);
    e.method = MethodId{static_cast<std::uint32_t>(v)};
    read_i64(e.bytes);
    read_i64(e.aux1);
    read_i64(e.aux2);
    trace.append(e);
  }
  trace.drop_index();
  return trace;
}

}  // namespace aide::emul
