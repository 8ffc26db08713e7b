#include "emul/trace.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace aide::emul {

std::uint32_t& Trace::slot_for(const TraceRef& ref) {
  if (!ref.obj.valid()) {
    const std::uint32_t cls = ref.cls.value();
    if (cls < kDenseLimit) {
      if (cls >= statics_.size()) statics_.resize(cls + 1);
      return statics_[cls];
    }
  } else {
    const std::uint64_t v = ref.obj.value();
    const std::uint64_t seq = v & kSeqMask;
    if (home_node_ == kNoHome) home_node_ = v >> 48;
    if ((v >> 48) == home_node_ && seq < kDenseLimit) {
      if (seq >= dense_.size()) dense_.resize(seq + 1);
      std::uint32_t& slot = dense_[seq];
      // The first class seen for the object owns the dense slot.
      if (slot == 0 || refs[slot].cls == ref.cls) return slot;
    }
  }
  return others_[ref];
}

void Trace::reindex() {
  for (indexed_refs_ = std::max<std::size_t>(indexed_refs_, 1);
       indexed_refs_ < refs.size(); ++indexed_refs_) {
    slot_for(refs[indexed_refs_]) = static_cast<std::uint32_t>(indexed_refs_);
  }
  for (indexed_methods_ = std::max<std::size_t>(indexed_methods_, 1);
       indexed_methods_ < methods.size(); ++indexed_methods_) {
    method_index_[methods[indexed_methods_].value()] =
        static_cast<std::uint16_t>(indexed_methods_);
  }
}

std::uint32_t Trace::intern_slow(const TraceRef& ref) {
  reindex();  // catch up with refs stored while the index was dropped
  std::uint32_t& slot = slot_for(ref);
  if (slot == 0) {
    if (refs.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("trace: ref table full");
    }
    slot = static_cast<std::uint32_t>(refs.size());
    refs.push_back(ref);
    indexed_refs_ = refs.size();
  }
  return slot;
}

std::uint16_t Trace::intern_method(MethodId m) {
  if (!m.valid()) return 0;
  const auto it = method_index_.find(m.value());
  if (it != method_index_.end()) return it->second;
  reindex();
  std::uint16_t& slot = method_index_[m.value()];
  if (slot == 0) {
    if (methods.size() > std::numeric_limits<std::uint16_t>::max()) {
      method_index_.erase(m.value());
      throw std::length_error("trace: method table full");
    }
    slot = static_cast<std::uint16_t>(methods.size());
    methods.push_back(m);
    indexed_methods_ = methods.size();
  }
  return slot;
}

TraceRecord Trace::at(std::size_t i) const {
  const TraceEvent& e = events.at(i);
  const TraceRef& a = refs[e.a];
  const TraceRef& b = refs[e.b];
  TraceRecord r;
  r.type = e.type;
  r.flags = static_cast<std::uint8_t>(e.flags & kRecordFlags);
  r.t = e.t;
  r.cls_a = a.cls;
  r.cls_b = b.cls;
  r.obj_a = a.obj;
  r.obj_b = b.obj;
  r.method = methods[e.method];
  r.bytes = e.bytes;
  if ((e.flags & kFlagAux) != 0) {
    const auto it = std::lower_bound(
        aux.begin(), aux.end(), i,
        [](const TraceAux& x, std::size_t ix) { return x.event < ix; });
    r.bytes = it->bytes;
    r.aux1 = it->aux1;
    r.aux2 = it->aux2;
  }
  return r;
}

void Trace::clear() noexcept {
  events.clear();
  refs.clear();
  methods.clear();
  aux.clear();
  drop_index();
}

void Trace::drop_index() noexcept {
  std::vector<std::uint32_t>().swap(dense_);
  std::vector<std::uint32_t>().swap(statics_);
  decltype(others_)().swap(others_);
  decltype(method_index_)().swap(method_index_);
  home_node_ = kNoHome;
  indexed_refs_ = 0;
  indexed_methods_ = 0;
}

std::size_t Trace::index_bytes() const noexcept {
  return (dense_.capacity() + statics_.capacity()) * sizeof(std::uint32_t) +
         others_.size() * sizeof(decltype(others_)::value_type) +
         method_index_.size() * sizeof(decltype(method_index_)::value_type);
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
