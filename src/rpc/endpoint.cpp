#include "rpc/endpoint.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "common/log.hpp"

namespace aide::rpc {

namespace {
constexpr std::uint8_t kStatusOk = 0;
constexpr std::uint8_t kStatusVmError = 1;
// Growth factor of the retry backoff between attempts.
constexpr double kBackoffMultiplier = 2.0;
// Jacobson's RTO: srtt plus this many mean deviations.
constexpr double kRttDevMultiplier = 4.0;
// Most not-yet-cached group mates one read-ahead fetch snapshots.
constexpr std::size_t kPrefetchLimit = 4;
// get_object reply markers, one per requested object.
constexpr std::uint8_t kObjectAbsent = 0;
constexpr std::uint8_t kObjectShipped = 1;
constexpr std::uint8_t kObjectOversized = 2;
// The smallest slot encoding (an int): bounds how many slots one budget-sized
// window can ask for.
constexpr std::size_t kMinSlotBytes = 9;
}  // namespace

Endpoint::Endpoint(vm::Vm& local_vm, netsim::Link& link)
    : vm_(local_vm), link_(link) {
  vm_.set_extra_roots_provider(
      [this](const std::function<void(ObjectId)>& visit) {
        refs_.for_each_export(visit);
      });
  vm_.set_stub_release_handler([this](std::span<const ObjectId> ids) {
    if (peer_ != nullptr) release(ids);
  });
}

void Endpoint::connect(Endpoint& a, Endpoint& b) {
  a.peer_ = &b;
  b.peer_ = &a;
  a.vm_.set_peer(&a);
  b.vm_.set_peer(&b);
}

void Endpoint::disconnect() {
  if (peer_ != nullptr) {
    Endpoint& other = *peer_;
    other.peer_ = nullptr;
    other.vm_.set_peer(nullptr);
    other.refs_.clear();
    other.has_cached_response_ = false;
    other.cached_response_.clear();
    other.drop_transport_state();
  }
  peer_ = nullptr;
  vm_.set_peer(nullptr);
  refs_.clear();
  has_cached_response_ = false;
  cached_response_.clear();
  drop_transport_state();
}

void Endpoint::detach_partitioned() {
  // The partition flavor of disconnect(): both heaps survive and will be
  // reconciled with each other, so every cross-VM reference must keep
  // resolving after the link returns. Export tables stay registered on both
  // sides — they are the GC roots that keep referenced objects (including
  // the surrogate originals the redo log replays into) alive across the
  // disconnected epoch. Only transport state dies.
  if (peer_ != nullptr) {
    Endpoint& other = *peer_;
    other.peer_ = nullptr;
    other.vm_.set_peer(nullptr);
    other.has_cached_response_ = false;
    other.cached_response_.clear();
    other.drop_transport_state();
  }
  peer_ = nullptr;
  vm_.set_peer(nullptr);
  has_cached_response_ = false;
  cached_response_.clear();
  drop_transport_state();
}

void Endpoint::drop_transport_state() {
  // A PREPARE-staged batch dies with the connection: it never touched the
  // heap, so dropping the bytes is the rollback. In-flight frame copies for
  // the reorder injector go with it, and so do read-ahead snapshots of the
  // peer's objects. The write-behind queue survives: after recovery its
  // targets are local and flush_pending/apply_pending_locally lands it.
  has_staged_migration_ = false;
  staged_migration_.clear();
  has_staged_reconcile_ = false;
  staged_reconcile_.clear();
  last_req_frame_.clear();
  last_resp_frame_.clear();
  windows_.clear();
  live_.clear();
  // A new connection epoch starts the partition detector fresh: the old
  // link's timeout run and silence window say nothing about the new link.
  detector_.reset(vm_.clock().now());
}

std::optional<std::vector<std::uint8_t>> Endpoint::take_cached_response(
    std::uint64_t seq) {
  if (!has_cached_response_ || seq != last_served_seq_) return std::nullopt;
  has_cached_response_ = false;
  return std::move(cached_response_);
}

// --- reference translation ----------------------------------------------------

WireRef Endpoint::translate_out(vm::ObjectRef ref) {
  WireRef wire;
  wire.id = ref.id;
  wire.cls = vm_.class_of(ref.id);
  if (vm::Object* obj = vm_.find_object(ref.id); obj != nullptr) {
    wire.kind = obj->kind;
    wire.owner = vm_.node();
    wire.handle = refs_.export_object(ref.id);
  } else {
    // A stub: the peer owns the object, so the raw id is sufficient — the
    // owner resolves its own ids directly (see translate_in). Deliberately
    // do NOT embed the import handle: encoded requests can sit in the
    // write-behind queue across a GC cycle (or a link outage), and a stub
    // release delivered in between would leave a dangling handle frozen in
    // the queued bytes. Ids never dangle on the owner. The handle field is
    // fixed-width, so frame sizes and timing are unchanged.
    wire.owner = peer_ != nullptr ? peer_->vm_.node() : NodeId::invalid();
    wire.handle = ExportHandle::invalid();
    wire.kind = vm::ObjectKind::plain;  // refined on the receiving side
  }
  return wire;
}

vm::ObjectRef Endpoint::translate_in(const WireRef& wire) {
  if (wire.owner == vm_.node()) {
    // A reference to one of our own objects came back.
    if (wire.handle.valid()) {
      const ObjectId id = refs_.resolve_export(wire.handle);
      assert(id == wire.id);
      return vm::ObjectRef{id};
    }
    if (vm_.is_local(wire.id)) return vm::ObjectRef{wire.id};
    throw VmError(VmErrorCode::null_reference,
                  "wire ref to unknown local object");
  }
  // The peer owns it: hold a stub and remember the peer's handle.
  vm_.install_stub(wire.id, wire.cls, wire.kind);
  if (wire.handle.valid()) refs_.note_import(wire.handle, wire.id);
  return vm::ObjectRef{wire.id};
}

// --- transport ----------------------------------------------------------------

SimDuration Endpoint::effective_timeout() const noexcept {
  if (!retry_.adaptive || !rtt_.primed) return retry_.timeout;
  const auto rto = static_cast<SimDuration>(
      rtt_.srtt + kRttDevMultiplier * rtt_.rttvar);
  return std::clamp(rto, retry_.min_timeout, retry_.timeout);
}

bool Endpoint::ping() {
  if (peer_ == nullptr) return false;
  stats_.heartbeats_sent += 1;
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::ping));
  try {
    (void)transact(std::move(w));
    return true;
  } catch (const PeerUnavailable&) {
    return false;
  }
}

std::vector<std::uint8_t> Endpoint::transact(ByteWriter request,
                                             std::uint32_t ops,
                                             bool pipelined) {
  if (peer_ == nullptr) {
    throw VmError(VmErrorCode::null_reference, "endpoint not connected");
  }
  // Pipelining overlaps the delivered reply's airtime with whatever the
  // caller computes next; a lost reply still pays the full timeout/retry
  // machinery below. The decision must not depend on whether a fault plan
  // is armed: an armed-but-inert plan stays bit-identical to fault-free.
  const bool overlap_reply = pipelined;
  const auto payload = std::move(request).take();
  stats_.rpcs_sent += 1;
  const std::uint64_t seq = ++next_seq_;
  const auto frame = make_frame(epoch_, seq, payload);

  const int max_attempts = std::max(retry_.max_attempts, 1);
  SimDuration backoff = retry_.backoff_initial;
  for (int attempt = 1;; ++attempt) {
    bool delivered = false;
    std::vector<std::uint8_t> resp_payload;
    SimDuration rtt_sample = 0;

    const auto req_leg = link_.try_one_way(frame.size(), vm_.clock().now(),
                                           netsim::Leg::request);
    if (req_leg.delivered) {
      stats_.bytes_sent += frame.size();
      link_.note_ops(ops);
      vm_.clock().advance(req_leg.cost);

      std::optional<std::vector<std::uint8_t>> resp_frame;
      // Snapshot the peer's previous response before serving: a reordered
      // reply leg presents this stale frame, not the one being produced now.
      const std::vector<std::uint8_t> prev_resp_frame = peer_->last_resp_frame_;
      try {
        if (req_leg.reordered) {
          // The in-flight frame is delayed past its timeout; what arrives
          // now is a stale retransmit of the previous request, which the
          // peer fences (or dedups from its reply cache) without executing.
          if (!last_req_frame_.empty()) {
            (void)peer_->receive_frame(last_req_frame_);
          }
        } else {
          std::vector<std::uint8_t> wire = frame;
          if (req_leg.corrupted) {
            wire[req_leg.chaos_salt % wire.size()] ^= 0xFF;
          }
          resp_frame = peer_->receive_frame(wire);
          if (req_leg.duplicated) {
            // The second copy reaches the peer too; its reply cache absorbs
            // it and the redundant response is discarded in the air.
            (void)peer_->receive_frame(wire);
          }
        }
      } catch (const PeerUnavailable&) {
        // A nested call the peer made while serving us was abandoned; the
        // peer rolled back its partial frame. Not retryable — re-sending
        // would re-execute side effects the peer already unwound once.
        stats_.aborted_rpcs += 1;
        throw PeerUnavailable(seq, "peer failed while serving rpc");
      }

      if (resp_frame.has_value()) {
        const auto resp_leg = link_.try_one_way(
            resp_frame->size(), vm_.clock().now(), netsim::Leg::reply);
        if (resp_leg.delivered) {
          // A pipelined flush still pays the reply's link accounting, but the
          // wait overlaps whatever this VM computes next in virtual time.
          if (!overlap_reply) vm_.clock().advance(resp_leg.cost);
          std::span<const std::uint8_t> resp_wire = *resp_frame;
          bool arrived = true;
          if (resp_leg.reordered) {
            // A stale retransmit of the peer's *previous* response arrives in
            // place of the in-flight one; the seq/epoch fence rejects it
            // below and the attempt times out. With no previous response to
            // retransmit, nothing arrives at all.
            if (prev_resp_frame.empty()) {
              arrived = false;
            } else {
              resp_wire = prev_resp_frame;
            }
          }
          std::vector<std::uint8_t> corrupted_copy;
          if (arrived && resp_leg.corrupted) {
            corrupted_copy.assign(resp_wire.begin(), resp_wire.end());
            corrupted_copy[resp_leg.chaos_salt % corrupted_copy.size()] ^=
                0xFF;
            resp_wire = corrupted_copy;
          }
          if (arrived) {
            stats_.bytes_received += resp_wire.size();
            const auto view = parse_frame(resp_wire);
            if (!view.has_value()) {
              stats_.corrupt_frames_rejected += 1;
            } else if (view->seq != seq || view->epoch != epoch_) {
              stats_.stale_frames_fenced += 1;
            } else {
              if (resp_leg.duplicated) stats_.duplicate_frames_dropped += 1;
              resp_payload.assign(view->payload.begin(), view->payload.end());
              rtt_sample = req_leg.cost + resp_leg.cost;
              delivered = true;
            }
          }
        }
      }
    }

    if (delivered) {
      // Feed the detector with transport time only (remote execution already
      // advanced the clock between the legs and must not inflate the RTO).
      rtt_.sample(rtt_sample);
      last_contact_ = vm_.clock().now();
      detector_.note_delivery(last_contact_);
      last_req_frame_ = frame;
      ByteReader r(resp_payload);
      const auto status = r.read_u8();
      if (status == kStatusVmError) {
        const auto code = static_cast<VmErrorCode>(r.read_u8());
        const std::string msg = r.read_string();
        throw VmError(code, "remote: " + msg);
      }
      // Strip the status byte; hand the remainder to the caller.
      return {resp_payload.begin() + 1, resp_payload.end()};
    }

    // No response: the send was refused (link down), a leg was dropped in
    // transit, or the frame that arrived was rejected (corrupt or stale).
    // The sender can't tell the difference — it just times out, waiting the
    // adaptive estimate rather than the configured worst case.
    stats_.timeouts += 1;
    vm_.clock().advance(effective_timeout());
    detector_.note_timeout(vm_.clock().now());
    if (attempt >= max_attempts) {
      // With the partition policy armed, an exhausted retry budget is not
      // yet proof of a *sustained* outage: traffic may have been flowing
      // right up to the cut, so the silence window can be shorter than the
      // policy floor when the budget runs out. Hold the RPC open — keep
      // retrying at the current backoff — until the two resolve: a transient
      // blip delivers on a later attempt and nothing trips, while a true
      // partition crosses the silence floor and aborts into a detector that
      // now answers suspected() == true. Abandonment and suspicion coincide,
      // so the failure handler never mistakes a partition for a dead peer.
      if (!detector_.policy().enabled ||
          detector_.suspected(vm_.clock().now())) {
        stats_.aborted_rpcs += 1;
        throw PeerUnavailable(seq, "rpc aborted after " +
                                       std::to_string(attempt) + " attempts");
      }
    }
    stats_.retries += 1;
    vm_.clock().advance(backoff);
    backoff = std::min(
        static_cast<SimDuration>(static_cast<double>(backoff) *
                                 kBackoffMultiplier),
        retry_.backoff_max);
  }
}

std::optional<std::vector<std::uint8_t>> Endpoint::transact_or_recover(
    ByteWriter request) {
  try {
    return transact(std::move(request));
  } catch (const PeerUnavailable&) {
    if (serving_depth_ > 0 || !peer_failure_handler_) throw;
    if (!peer_failure_handler_()) throw;
    stats_.recovered_rpcs += 1;
    return std::nullopt;
  }
}

// --- write-behind batching ----------------------------------------------------

void Endpoint::set_batch_policy(BatchPolicy policy) {
  if (!policy.enabled) flush_pending();
  batch_ = policy;
  if (!batch_.read_ahead) invalidate_windows();
}

void Endpoint::set_prefetch_groups(std::vector<std::vector<ObjectId>> groups) {
  groups_ = std::move(groups);
  group_of_.clear();
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    for (const ObjectId id : groups_[g]) group_of_[id] = g;
  }
}

void Endpoint::set_batch_safety(const analysis::BatchSafetyOracle* oracle) {
  // Queued proofs were made against the old oracle; drain before switching.
  if (oracle != oracle_) flush_pending();
  oracle_ = oracle;
  pending_proven_ = true;
}

void Endpoint::set_prefetch_eligible(std::vector<ClassId> classes) {
  std::sort(classes.begin(), classes.end());
  has_prefetch_filter_ = !classes.empty();
  prefetch_filter_ = std::move(classes);
}

Endpoint::StoreLoc Endpoint::store_loc_of(const PendingOp& rec) const {
  switch (rec.kind) {
    case Op::put_field:
      return {vm_.class_of(rec.target), analysis::StoreKind::field, rec.key};
    case Op::put_static:
      return {ClassId{rec.key}, analysis::StoreKind::static_slot, rec.slot};
    case Op::array_put:
      return {vm_.class_of(rec.target), analysis::StoreKind::elems,
              analysis::kAnyMember};
    default:  // chars_write — the only other deferred kind
      return {vm_.class_of(rec.target), analysis::StoreKind::chars,
              analysis::kAnyMember};
  }
}

bool Endpoint::store_proven_deferrable(const PendingOp& rec) const {
  if (oracle_ == nullptr) return true;  // PR 6 semantics: always defer
  if (!vm_.knows(rec.target) && rec.kind != Op::put_static) return false;
  const StoreLoc loc = store_loc_of(rec);
  return oracle_->store_deferrable(loc.cls, loc.kind, loc.member);
}

std::size_t Endpoint::effective_max_ops() const noexcept {
  if (oracle_ != nullptr && pending_proven_ &&
      batch_.max_ops_proven > batch_.max_ops) {
    return batch_.max_ops_proven;
  }
  return batch_.max_ops;
}

bool Endpoint::prefetch_mate_eligible(ObjectId id) const {
  if (!has_prefetch_filter_) return true;
  return std::binary_search(prefetch_filter_.begin(), prefetch_filter_.end(),
                            vm_.class_of(id));
}

// Strict queue drain: the whole queue goes out as one frame (one op as a
// bit-identical legacy frame) and is cleared once the peer owns it. Throws
// PeerUnavailable with the queue intact — every queued op is an idempotent
// absolute store, so whoever catches can re-apply or re-send safely.
void Endpoint::send_queue() {
  if (pending_.empty() || peer_ == nullptr) return;
  const std::size_t count = pending_.size();
  ByteWriter w;
  if (count == 1) {
    w.write_bytes(pending_.front().encoded);
  } else {
    w.write_u8(static_cast<std::uint8_t>(Op::batch));
    w.write_u32(static_cast<std::uint32_t>(count));
    for (const PendingOp& p : pending_) write_op_section(w, p.encoded);
  }
  const auto resp =
      transact(std::move(w), static_cast<std::uint32_t>(count),
               /*pipelined=*/true);
  if (count > 1) {
    stats_.batches_sent += 1;
    stats_.batched_ops += count;
  }
  pending_.clear();
  pending_proven_ = true;
  if (count > 1) {
    // Surface the first rider's semantic error, if any (a pure-write batch
    // carries no demanded value, so this is the only place it can surface).
    ByteReader r(resp);
    const auto executed = r.read_u32();
    for (std::uint32_t i = 0; i < executed; ++i) {
      ByteReader sr(read_op_section(r));
      const auto status = sr.read_u8();
      if (status == kStatusVmError) {
        const auto code = static_cast<VmErrorCode>(sr.read_u8());
        throw VmError(code, "remote: " + sr.read_string());
      }
    }
  }
}

// Top-level flush: recovers like any other RPC when the peer is gone for
// good — state is pulled back and the queued stores re-apply locally.
void Endpoint::flush_or_recover() {
  try {
    send_queue();
  } catch (const PeerUnavailable&) {
    if (serving_depth_ > 0 || !peer_failure_handler_) throw;
    if (!peer_failure_handler_()) throw;
    apply_pending_locally();
    stats_.recovered_rpcs += 1;
  }
}

void Endpoint::flush_pending() {
  // Yield point: read-ahead values never survive one (see windows_).
  invalidate_windows();
  if (pending_.empty()) return;
  if (peer_ == nullptr) {
    // Disconnected after recovery: the targets live here now.
    apply_pending_locally();
    return;
  }
  try {
    send_queue();
  } catch (const PeerUnavailable&) {
    // Called from GC entry, where platform recovery would be re-entrant
    // (exactly like release()). The queue is idempotent and kept; the next
    // top-level operation performs the recovery and re-applies it.
  }
}

void Endpoint::enqueue_pending(PendingOp rec, ByteWriter encoded) {
  stats_.ops_sent += 1;
  rec.encoded = std::move(encoded).take();
  if (oracle_ != nullptr && pending_proven_) {
    // Incremental proof: the queue stays "proven" only while every pair of
    // queued stores commutes. One unprovable pair drops the whole queue back
    // to the base depth cap — never past it, so this can only flush earlier.
    const StoreLoc loc = store_loc_of(rec);
    for (const PendingOp& p : pending_) {
      const StoreLoc other = store_loc_of(p);
      if (!oracle_->stores_commute(other.cls, other.kind, other.member,
                                   loc.cls, loc.kind, loc.member)) {
        pending_proven_ = false;
        break;
      }
    }
  }
  pending_.push_back(std::move(rec));
  if (pending_.size() >= effective_max_ops()) flush_or_recover();
  if (pending_.empty()) pending_proven_ = true;
}

void Endpoint::apply_pending_locally() {
  const auto ops = std::move(pending_);
  pending_.clear();
  pending_proven_ = true;
  for (const PendingOp& p : ops) {
    switch (p.kind) {
      case Op::put_field:
        vm_.raw_put_field(p.target, FieldId{p.key}, p.value);
        break;
      case Op::put_static:
        vm_.raw_put_static(ClassId{p.key}, p.slot, p.value);
        break;
      case Op::array_put:
        vm_.raw_array_put(p.target, p.index, p.value);
        break;
      case Op::chars_write:
        vm_.raw_chars_write(p.target, p.index, p.data);
        break;
      default:
        break;  // only void stores are ever deferred
    }
  }
  stats_.pending_applied_locally += ops.size();
}

std::vector<std::uint8_t> Endpoint::transact_with_pending(ByteWriter op) {
  if (pending_.empty()) return transact(std::move(op));

  const std::size_t riders = pending_.size();
  ByteWriter batch;
  batch.write_u8(static_cast<std::uint8_t>(Op::batch));
  batch.write_u32(static_cast<std::uint32_t>(riders + 1));
  for (const PendingOp& p : pending_) write_op_section(batch, p.encoded);
  const auto tail = std::move(op).take();
  write_op_section(batch, tail);
  stats_.batches_sent += 1;
  stats_.batched_ops += riders + 1;

  // While the batch is in flight the riders belong to the wire, not the
  // queue: the peer may nest calls back into this VM while serving the
  // invoke, and the nested serve's trailing flush must not re-send (and
  // consume) ops that are already aboard the very frame being served.
  // PeerUnavailable restores them: recovery re-applies the idempotent
  // riders locally whether or not the batch executed. Any other outcome
  // means the peer owns the executed prefix, so the riders are done.
  auto in_flight = std::move(pending_);
  pending_.clear();
  pending_proven_ = true;
  std::vector<std::uint8_t> resp;
  try {
    resp = transact(std::move(batch), static_cast<std::uint32_t>(riders + 1));
  } catch (const PeerUnavailable&) {
    // Riders first, then whatever nested serving enqueued meanwhile.
    in_flight.insert(in_flight.end(),
                     std::make_move_iterator(pending_.begin()),
                     std::make_move_iterator(pending_.end()));
    pending_ = std::move(in_flight);
    // The merged queue's pairwise proof is unknown; assume the worst
    // (only ever flushes earlier than a proven queue would).
    pending_proven_ = false;
    throw;
  }

  ByteReader r(resp);
  const auto executed = r.read_u32();
  std::vector<std::span<const std::uint8_t>> sections;
  sections.reserve(executed);
  for (std::uint32_t i = 0; i < executed; ++i) {
    sections.push_back(read_op_section(r));
  }
  for (std::size_t i = 0; i < sections.size(); ++i) {
    ByteReader sr(sections[i]);
    const auto status = sr.read_u8();
    if (status == kStatusVmError) {
      // The batch stopped here; ops after it never executed — the same
      // prefix semantics as issuing the ops one at a time.
      const auto code = static_cast<VmErrorCode>(sr.read_u8());
      throw VmError(code, "remote: " + sr.read_string());
    }
  }
  if (executed != riders + 1) {
    throw VmError(VmErrorCode::type_mismatch,
                  "batch reply count mismatch without an error");
  }
  // The last section is the demanded op's reply, status already checked.
  const auto last = sections.back();
  return {last.begin() + 1, last.end()};
}

std::optional<std::vector<std::uint8_t>>
Endpoint::transact_or_recover_with_pending(ByteWriter op) {
  try {
    return transact_with_pending(std::move(op));
  } catch (const PeerUnavailable&) {
    if (serving_depth_ > 0 || !peer_failure_handler_) throw;
    if (!peer_failure_handler_()) throw;
    // Reintegration made every target local; the deferred stores land there.
    apply_pending_locally();
    stats_.recovered_rpcs += 1;
    return std::nullopt;
  }
}

// --- read-ahead windows ------------------------------------------------------

std::size_t Endpoint::window_budget() const noexcept {
  // One bandwidth-delay product: what the link carries in one null RTT.
  const netsim::LinkParams& p = link_.params();
  return static_cast<std::size_t>(
      p.bandwidth_bps * static_cast<double>(p.null_rtt) / 8e9);
}

void Endpoint::invalidate_windows() noexcept {
  for (const ObjectId id : live_) {
    const auto it = windows_.find(id);
    if (it == windows_.end()) continue;
    if (it->second.whole) {
      // A snapshot carries no scan state worth keeping.
      windows_.erase(it);
      continue;
    }
    it->second.values = {};
    it->second.yielded = true;
  }
  live_.clear();
}

const vm::Value* Endpoint::window_lookup(ObjectId target, std::int64_t slot,
                                         Op elem) {
  const auto it = windows_.find(target);
  if (it == windows_.end()) return nullptr;
  Window& w = it->second;
  const std::int64_t k = w.index_of(slot);
  if (w.elem != elem || k < 0) return nullptr;
  w.served += 1;
  if (slot > w.last) {
    w.step = slot - w.last;
    w.last = slot;
  }
  w.side = -1;
  return &w.values[static_cast<std::size_t>(k)];
}

void Endpoint::window_store(ObjectId target, std::int64_t slot, Op elem,
                            const vm::Value& v) {
  const auto it = windows_.find(target);
  if (it == windows_.end() || it->second.elem != elem) return;
  Window& w = it->second;
  if (const std::int64_t k = w.index_of(slot); k >= 0) {
    w.values[static_cast<std::size_t>(k)] = v;
  }
}

bool Endpoint::oversized(ObjectId target) const {
  const auto it = windows_.find(target);
  return it != windows_.end() && it->second.oversized;
}

std::optional<vm::Value> Endpoint::fetch_snapshot(ObjectId target,
                                                  FieldId field) {
  // The demanded object first, then not-yet-cached remote group mates in
  // their (sorted) group order — a deterministic candidate list.
  std::vector<ObjectId> wanted{target};
  if (const auto git = group_of_.find(target); git != group_of_.end()) {
    for (const ObjectId id : groups_[git->second]) {
      if (wanted.size() > kPrefetchLimit) break;
      if (id == target || vm_.is_local(id)) continue;
      // Already snapshotted, or known to be read by slot.
      if (const auto wit = windows_.find(id);
          wit != windows_.end() &&
          (wit->second.whole || wit->second.oversized)) {
        continue;
      }
      // Group tables outlive the distributed GC: a mate whose stub was
      // released (or that migrated home) is no longer addressable from here.
      if (!vm_.knows(id)) continue;
      // Mates outside the eligibility filter (classes whose fields escape
      // through aliases the analysis can't track) are never worth a stale
      // snapshot; the demanded object itself is always fetched.
      if (!prefetch_mate_eligible(id)) {
        stats_.prefetches_filtered += 1;
        continue;
      }
      wanted.push_back(id);
    }
  }

  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::get_object));
  w.write_u32(static_cast<std::uint32_t>(wanted.size()));
  for (const ObjectId id : wanted) write_target(w, id);

  const auto resp = transact_or_recover_with_pending(std::move(w));
  if (!resp.has_value()) return vm_.raw_get_field(target, field);

  ByteReader r(*resp);
  const auto count = r.read_u32();
  std::optional<vm::Value> result;
  for (std::uint32_t i = 0; i < count; ++i) {
    const ObjectId id{r.read_u64()};
    const auto marker = r.read_u8();
    if (marker == kObjectAbsent) continue;
    if (marker == kObjectOversized) {
      windows_[id].oversized = true;
      continue;
    }
    const auto nfields = r.read_u32();
    std::vector<vm::Value> fields;
    fields.reserve(nfields);
    for (std::uint32_t f = 0; f < nfields; ++f) {
      fields.push_back(read_value(r, *this));
    }
    stats_.snapshots_fetched += 1;
    if (i > 0) stats_.objects_prefetched += 1;
    if (id == target && field.value() < fields.size()) {
      result = fields[field.value()];
    }
    if (fields.empty()) continue;
    Window& win = windows_[id];
    if (win.values.empty()) live_.push_back(id);
    win.begin = 0;
    win.stride = 1;
    win.values = std::move(fields);
    win.whole = true;
  }
  // nullopt here (object absent, oversized or field out of range) falls back
  // to the slot or per-op path, which produces the authoritative value.
  return result;
}

vm::Value Endpoint::read_slot(ObjectId target, std::int64_t slot, Op elem) {
  // Size the fetch from the scan state. A forward read continues the scan
  // at the stride its hits stepped by (or, with no hits yet, at the gap
  // from the last read). With no yield since the last read it doubles the
  // width when it runs off the end of the last run; any forward read runs
  // off a single slot. Every other miss restarts at the power of two at or
  // above the reads the last run served — 1 for a read that never repeats.
  // A read behind a live scan (a stencil's neighbour, say) is a side read:
  // one legacy frame that leaves the scan alone. Two side reads walking
  // forward start a new scan from the first of them.
  static const Window kFresh;
  const auto it = windows_.find(target);
  const Window& prev = it != windows_.end() ? it->second : kFresh;
  std::int64_t last = prev.last;
  std::int64_t step = prev.step;
  std::uint32_t run = prev.fetched;
  std::uint32_t grown = prev.width;
  bool side = false;
  if (!prev.values.empty() && slot <= prev.last) {
    if (prev.side >= 0 && slot > prev.side) {
      last = prev.side;
      step = 0;
      run = 1;
      grown = 1;
    } else {
      side = true;
    }
  }
  const bool forward = !side && last >= 0 && slot > last;
  std::int64_t stride = prev.stride;
  if (forward) stride = step > 0 ? step : slot - last;
  const bool ran_out =
      forward && !prev.yielded &&
      (run <= 1 ||
       slot == prev.begin + static_cast<std::int64_t>(run) * prev.stride);
  const auto cap = static_cast<std::uint32_t>(
      std::max<std::size_t>(1, window_budget() / kMinSlotBytes));
  std::uint32_t width = 1;
  if (!side) {
    width = ran_out ? std::min(grown * 2, cap)
                    : std::min(std::bit_ceil(std::clamp(prev.served, 1u, cap)),
                               cap);
  }

  ByteWriter w;
  if (width == 1) {
    // The legacy single-op frame, byte for byte.
    w.write_u8(static_cast<std::uint8_t>(elem));
    write_target(w, target);
    if (elem == Op::get_field) {
      w.write_u32(static_cast<std::uint32_t>(slot));
    } else {
      w.write_i64(slot);
    }
  } else {
    w.write_u8(static_cast<std::uint8_t>(Op::get_slots));
    write_target(w, target);
    w.write_u8(static_cast<std::uint8_t>(elem));
    w.write_i64(slot);
    w.write_i64(stride);
    w.write_u32(width);
  }
  const auto resp = transact_or_recover_with_pending(std::move(w));
  if (!resp.has_value()) {
    return elem == Op::get_field
               ? vm_.raw_get_field(target,
                                   FieldId{static_cast<std::uint32_t>(slot)})
               : vm_.raw_array_get(target, slot);
  }
  ByteReader r(*resp);
  std::vector<vm::Value> values;
  if (width == 1) {
    values.push_back(read_value(r, *this));
  } else {
    const auto n = r.read_u32();
    values.reserve(n);
    for (std::uint32_t k = 0; k < n; ++k) {
      values.push_back(read_value(r, *this));
    }
    stats_.snapshots_fetched += 1;
  }
  const vm::Value result = values.front();
  // Looked up afresh: the exchange may have recursed through a yield.
  if (side) {
    if (const auto sit = windows_.find(target); sit != windows_.end()) {
      sit->second.side = slot;
    }
    return result;
  }
  Window& win = windows_[target];
  if (win.values.empty()) live_.push_back(target);
  win.elem = elem;
  win.begin = slot;
  win.stride = stride;
  win.fetched = static_cast<std::uint32_t>(values.size());
  win.values = std::move(values);
  win.last = slot;
  win.step = 0;
  win.side = -1;
  win.width = width;
  win.served = 1;
  win.yielded = false;
  return result;
}

ObjectId Endpoint::resolve_target(ByteReader& r) {
  const WireRef wire = read_wire_ref(r);
  const vm::ObjectRef ref = translate_in(wire);
  return ref.id;
}

void Endpoint::write_target(ByteWriter& w, ObjectId id) {
  write_wire_ref(w, translate_out(vm::ObjectRef{id}));
}

// --- outgoing operations --------------------------------------------------------

vm::Value Endpoint::recover_invoke(
    const PeerUnavailable& e, std::size_t mark, std::size_t riders,
    const std::function<vm::Value()>& rerun_local) {
  if (serving_depth_ > 0 || !peer_failure_handler_) {
    // Not the top level (or nobody to recover us): keep the journal entries
    // for the enclosing scope and let the failure propagate.
    vm_.journal_commit();
    throw;
  }

  // The peer may have executed the call and lost only the response; salvage
  // the cached reply before recovery tears the pair down so the call is not
  // run twice.
  auto cached = peer_ != nullptr ? peer_->take_cached_response(e.seq())
                                 : std::nullopt;
  if (cached.has_value()) {
    ByteReader r(*cached);
    const auto status = r.read_u8();
    // With riders the cached reply is a batch reply: the executed sub-ops
    // (riders first, the invoke last) are authoritative on the peer, so the
    // write-behind queue is done — recovery must not re-apply it on top of
    // whatever the invoke computed afterwards.
    std::optional<ByteReader> sub;
    if (riders > 0 && status == kStatusOk) {
      pending_.clear();
      const auto executed = r.read_u32();
      std::vector<std::span<const std::uint8_t>> sections;
      sections.reserve(executed);
      for (std::uint32_t i = 0; i < executed; ++i) {
        sections.push_back(read_op_section(r));
      }
      // A rider's semantic error stopped the batch before the invoke ran;
      // surface it exactly like a remote invoke error.
      sub.emplace(sections.back());
    } else {
      sub.emplace(*cached);
    }
    const auto sub_status = sub->read_u8();
    if (sub_status == kStatusVmError) {
      const auto code = static_cast<VmErrorCode>(sub->read_u8());
      const std::string msg = sub->read_string();
      vm_.journal_commit();
      pending_.clear();
      peer_failure_handler_();
      stats_.recovered_rpcs += 1;
      throw VmError(code, "remote: " + msg);
    }
    // Decode while translations are still wired; refs the dead peer owned
    // become stubs that reintegration resolves to local objects.
    const vm::Value ret = read_value(*sub, *this);
    vm_.journal_commit();
    peer_failure_handler_();
    stats_.recovered_rpcs += 1;
    return ret;
  }

  // The call never completed remotely: undo the side effects of any
  // callbacks the partial attempts made into this VM, pull the surviving
  // state back, apply the write-behind queue to the now-local targets, and
  // run the frame locally from the stub.
  vm_.journal_rollback(mark);
  if (!peer_failure_handler_()) throw;
  apply_pending_locally();
  stats_.recovered_rpcs += 1;
  return rerun_local();
}

vm::Value Endpoint::invoke(ObjectId target, ClassId cls, MethodId method,
                           std::span<const vm::Value> args) {
  stats_.ops_sent += 1;
  // The peer is about to execute code: read-ahead windows go stale now.
  invalidate_windows();
  if (oracle_ != nullptr && !pending_.empty() &&
      !oracle_->invoke_accepts_riders(cls, method)) {
    // The callee's effects are not proven disjoint from the queued stores:
    // flush them as their own frame before the call (never as riders).
    stats_.unproven_riders_flushed += 1;
    flush_or_recover();
  }
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::invoke));
  write_target(w, target);
  w.write_u32(cls.value());
  w.write_u32(method.value());
  w.write_u32(static_cast<std::uint32_t>(args.size()));
  for (const auto& a : args) write_value(w, a, *this);

  const std::size_t riders = pending_.size();
  const std::size_t mark = vm_.journal_begin();
  try {
    const auto resp = transact_with_pending(std::move(w));
    ByteReader r(resp);
    const vm::Value ret = read_value(r, *this);
    vm_.journal_commit();
    return ret;
  } catch (const PeerUnavailable& e) {
    return recover_invoke(e, mark, riders, [&] {
      return vm_.run_incoming_invoke(target, method, args);
    });
  } catch (...) {
    // Semantic errors keep their partial effects (the fault-free contract).
    vm_.journal_commit();
    throw;
  }
}

vm::Value Endpoint::invoke_static(ClassId cls, MethodId method,
                                  std::span<const vm::Value> args) {
  stats_.ops_sent += 1;
  invalidate_windows();
  if (oracle_ != nullptr && !pending_.empty() &&
      !oracle_->invoke_accepts_riders(cls, method)) {
    stats_.unproven_riders_flushed += 1;
    flush_or_recover();
  }
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::invoke_static));
  w.write_u32(cls.value());
  w.write_u32(method.value());
  w.write_u32(static_cast<std::uint32_t>(args.size()));
  for (const auto& a : args) write_value(w, a, *this);

  const std::size_t riders = pending_.size();
  const std::size_t mark = vm_.journal_begin();
  try {
    const auto resp = transact_with_pending(std::move(w));
    ByteReader r(resp);
    const vm::Value ret = read_value(r, *this);
    vm_.journal_commit();
    return ret;
  } catch (const PeerUnavailable& e) {
    return recover_invoke(e, mark, riders, [&] {
      return vm_.run_incoming_invoke_static(cls, method, args);
    });
  } catch (...) {
    vm_.journal_commit();
    throw;
  }
}

vm::Value Endpoint::get_field(ObjectId target, FieldId field) {
  stats_.ops_sent += 1;
  if (read_ahead_on()) {
    if (const vm::Value* v = window_lookup(target, field.value(),
                                           Op::get_field)) {
      stats_.readahead_hits += 1;
      return *v;
    }
    if (!oversized(target)) {
      if (auto v = fetch_snapshot(target, field)) return *v;
    }
    // The first fetch of an oversized object learns that it is one.
    if (oversized(target)) {
      return read_slot(target, field.value(), Op::get_field);
    }
    // Snapshot miss (non-plain object, unknown field, ...): the legacy
    // per-op path below is authoritative.
  }
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::get_field));
  write_target(w, target);
  w.write_u32(field.value());

  const auto resp = transact_or_recover_with_pending(std::move(w));
  if (!resp.has_value()) return vm_.raw_get_field(target, field);
  ByteReader r(*resp);
  return read_value(r, *this);
}

void Endpoint::put_field(ObjectId target, FieldId field, const vm::Value& v) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::put_field));
  write_target(w, target);
  w.write_u32(field.value());
  write_value(w, v, *this);
  // Keep a live window coherent with the store, deferred or eager.
  window_store(target, field.value(), Op::get_field, v);
  if (defer_writes()) {
    PendingOp rec;
    rec.kind = Op::put_field;
    rec.target = target;
    rec.key = field.value();
    rec.value = v;
    if (store_proven_deferrable(rec)) {
      enqueue_pending(std::move(rec), std::move(w));
      return;
    }
    // The oracle refuses this store: drain the queue so program order is
    // preserved, then write through eagerly (flush earlier, never reorder).
    stats_.unproven_stores_flushed += 1;
    flush_or_recover();
  }
  stats_.ops_sent += 1;
  if (!transact_or_recover(std::move(w)).has_value()) {
    vm_.raw_put_field(target, field, v);
  }
}

vm::Value Endpoint::get_static(ClassId cls, std::uint32_t slot) {
  stats_.ops_sent += 1;
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::get_static));
  w.write_u32(cls.value());
  w.write_u32(slot);

  const auto resp = transact_or_recover_with_pending(std::move(w));
  if (!resp.has_value()) return vm_.raw_get_static(cls, slot);
  ByteReader r(*resp);
  return read_value(r, *this);
}

void Endpoint::put_static(ClassId cls, std::uint32_t slot,
                          const vm::Value& v) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::put_static));
  w.write_u32(cls.value());
  w.write_u32(slot);
  write_value(w, v, *this);
  if (defer_writes()) {
    PendingOp rec;
    rec.kind = Op::put_static;
    rec.key = cls.value();
    rec.slot = slot;
    rec.value = v;
    if (store_proven_deferrable(rec)) {
      enqueue_pending(std::move(rec), std::move(w));
      return;
    }
    stats_.unproven_stores_flushed += 1;
    flush_or_recover();
  }
  stats_.ops_sent += 1;
  if (!transact_or_recover(std::move(w)).has_value()) {
    vm_.raw_put_static(cls, slot, v);
  }
}

vm::Value Endpoint::array_get(ObjectId target, std::int64_t index) {
  stats_.ops_sent += 1;
  if (read_ahead_on()) {
    if (const vm::Value* v = window_lookup(target, index, Op::array_get)) {
      stats_.readahead_hits += 1;
      return *v;
    }
    return read_slot(target, index, Op::array_get);
  }
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::array_get));
  write_target(w, target);
  w.write_i64(index);

  const auto resp = transact_or_recover_with_pending(std::move(w));
  if (!resp.has_value()) return vm_.raw_array_get(target, index);
  ByteReader r(*resp);
  return read_value(r, *this);
}

void Endpoint::array_put(ObjectId target, std::int64_t index,
                         const vm::Value& v) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::array_put));
  write_target(w, target);
  w.write_i64(index);
  write_value(w, v, *this);
  if (v.is_int()) {
    // Cached as a read would return it: a char element reads back unsigned.
    const bool chars =
        vm_.class_of(target) == vm_.registry().char_array_class();
    window_store(target, index, Op::array_get,
                 chars ? vm::Value{static_cast<std::int64_t>(
                             static_cast<unsigned char>(v.as_int()))}
                       : v);
  }
  if (defer_writes()) {
    PendingOp rec;
    rec.kind = Op::array_put;
    rec.target = target;
    rec.index = index;
    rec.value = v;
    if (store_proven_deferrable(rec)) {
      enqueue_pending(std::move(rec), std::move(w));
      return;
    }
    stats_.unproven_stores_flushed += 1;
    flush_or_recover();
  }
  stats_.ops_sent += 1;
  if (!transact_or_recover(std::move(w)).has_value()) {
    vm_.raw_array_put(target, index, v);
  }
}

std::int64_t Endpoint::array_length(ObjectId target) {
  stats_.ops_sent += 1;
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::array_len));
  write_target(w, target);

  const auto resp = transact_or_recover_with_pending(std::move(w));
  if (!resp.has_value()) return vm_.raw_array_length(target);
  ByteReader r(*resp);
  return r.read_i64();
}

std::string Endpoint::chars_read(ObjectId target, std::int64_t offset,
                                 std::int64_t length) {
  stats_.ops_sent += 1;
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::chars_read));
  write_target(w, target);
  w.write_i64(offset);
  w.write_i64(length);

  const auto resp = transact_or_recover_with_pending(std::move(w));
  if (!resp.has_value()) return vm_.raw_chars_read(target, offset, length);
  ByteReader r(*resp);
  return r.read_string();
}

void Endpoint::chars_write(ObjectId target, std::int64_t offset,
                           std::string_view data) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::chars_write));
  write_target(w, target);
  w.write_i64(offset);
  w.write_string(data);
  // A live window the write overlaps is dropped rather than patched: an
  // out-of-range write fails whole on the peer, and only the peer knows.
  if (const auto it = windows_.find(target);
      it != windows_.end() && it->second.elem == Op::array_get &&
      !it->second.values.empty()) {
    const Window& win = it->second;
    const std::int64_t last =
        win.begin +
        static_cast<std::int64_t>(win.values.size() - 1) * win.stride;
    // Unsigned: the offset comes from the program and may be anything.
    if (offset <= last &&
        (offset >= win.begin || static_cast<std::uint64_t>(win.begin) -
                                        static_cast<std::uint64_t>(offset) <
                                    data.size())) {
      it->second.values = {};
    }
  }
  if (defer_writes()) {
    PendingOp rec;
    rec.kind = Op::chars_write;
    rec.target = target;
    rec.index = offset;
    rec.data = std::string(data);
    if (store_proven_deferrable(rec)) {
      enqueue_pending(std::move(rec), std::move(w));
      return;
    }
    stats_.unproven_stores_flushed += 1;
    flush_or_recover();
  }
  stats_.ops_sent += 1;
  if (!transact_or_recover(std::move(w)).has_value()) {
    vm_.raw_chars_write(target, offset, data);
  }
}

void Endpoint::release(std::span<const ObjectId> ids) {
  // Map stubs back to the peer's handles; skip ids we never learned handles
  // for (they were never resolvable remotely anyway).
  std::vector<ExportHandle> handles;
  handles.reserve(ids.size());
  for (const ObjectId id : ids) {
    const ExportHandle h = refs_.import_handle_for(id);
    if (h.valid()) handles.push_back(h);
    refs_.forget_import(id);
    windows_.erase(id);
  }
  if (handles.empty() || peer_ == nullptr) return;

  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Op::release));
  w.write_u32(static_cast<std::uint32_t>(handles.size()));
  for (const ExportHandle h : handles) w.write_u64(h.value());
  stats_.releases_sent += 1;
  try {
    transact(std::move(w));
  } catch (const PeerUnavailable&) {
    // Releases run inside GC, where recovery would be re-entrant; the peer
    // is gone, so there is nothing left to release anyway. The next real
    // operation performs the recovery.
  }
}

std::uint64_t Endpoint::migrate_objects(std::span<const ObjectId> ids) {
  if (peer_ == nullptr) {
    throw VmError(VmErrorCode::null_reference, "endpoint not connected");
  }
  // The epoch bump below fences every frame encoded before it, so the
  // write-behind queue must drain first — strictly: a terminal failure here
  // propagates (queue kept) for the platform's recovery to re-apply.
  invalidate_windows();
  send_queue();

  MigrationTrace trace;
  trace.begin = vm_.clock().now();
  trace.objects = ids.size();
  // A fresh epoch fences every frame still in flight from before this
  // migration; the PREPARE carries it to the peer.
  advance_epoch();
  trace.epoch = epoch_;

  // Extract everything first so cross-references among the batch serialize
  // consistently (they all become stubs locally).
  std::vector<std::unique_ptr<vm::Object>> objects;
  objects.reserve(ids.size());
  for (const ObjectId id : ids) {
    objects.push_back(vm_.migrate_out(id));
    // The peer's references to this object now resolve locally on the peer.
    refs_.release_export(id);
  }

  ByteWriter prepare;
  prepare.write_u8(static_cast<std::uint8_t>(Op::migrate_prepare));
  prepare.write_u32(static_cast<std::uint32_t>(objects.size()));
  for (const auto& obj : objects) write_object_header(prepare, *obj);
  for (const auto& obj : objects) write_object_payload(prepare, *obj, *this);

  const std::uint64_t bytes = prepare.size();
  stats_.migrations_sent += 1;
  stats_.objects_migrated_out += objects.size();
  stats_.bytes_migrated_out += bytes;

  const auto reinstate = [&] {
    for (auto& obj : objects) vm_.migrate_in(std::move(obj));
  };

  try {
    (void)transact(std::move(prepare));
  } catch (const PeerUnavailable&) {
    // PREPARE staged raw bytes at most — nothing touched the peer's heap,
    // so reinstating our extracted copies restores the exact pre-offload
    // state, no matter which message boundary the link died at.
    migrations_.push_back(trace);
    reinstate();
    throw;
  }
  trace.prepare_acked = vm_.clock().now();

  ByteWriter commit;
  commit.write_u8(static_cast<std::uint8_t>(Op::migrate_commit));
  commit.write_u32(static_cast<std::uint32_t>(objects.size()));

  std::vector<std::uint8_t> resp;
  try {
    resp = transact(std::move(commit));
  } catch (const PeerUnavailable&) {
    // Adoption is atomic on the serving side: if the peer holds the batch,
    // the COMMIT applied and only its response was lost — the peer's copies
    // are authoritative and reintegration will pull them back. Otherwise the
    // staged bytes die with the connection and we reinstate ours.
    const bool adopted = peer_ != nullptr && !objects.empty() &&
                         peer_->vm_.is_local(objects[0]->id);
    migrations_.push_back(trace);
    if (!adopted) reinstate();
    throw;
  }
  trace.commit_acked = vm_.clock().now();
  trace.committed = true;

  ByteReader r(resp);
  const auto count = r.read_u32();
  if (count != objects.size()) {
    throw OffloadError(OffloadErrorCode::protocol_error,
                       "migration response count mismatch");
  }
  // The peer exported the adopted objects back to us; remember the handles so
  // our stubs resolve on future operations.
  for (std::uint32_t i = 0; i < count; ++i) {
    const ExportHandle h{r.read_u64()};
    refs_.note_import(h, objects[i]->id);
  }
  migrations_.push_back(trace);
  return bytes;
}

// --- disconnected-operation reconcile ----------------------------------------
//
// Redo-log values travel self-described instead of via export handles:
// during a partition both heaps hold the same object ids (the hoarded
// replicas were byte copies and disconnected-era allocations exist only on
// the client), so raw ids are unambiguous and the RefMaps — cleared at
// disconnect — are not needed.

namespace {
constexpr std::uint8_t kRedoNil = 0;
constexpr std::uint8_t kRedoBool = 1;
constexpr std::uint8_t kRedoInt = 2;
constexpr std::uint8_t kRedoReal = 3;
constexpr std::uint8_t kRedoStr = 4;
constexpr std::uint8_t kRedoRef = 5;
}  // namespace

void Endpoint::write_redo_value(ByteWriter& w, const vm::Value& v,
                                const vm::DisconnectLog& log) {
  if (v.is_nil()) {
    w.write_u8(kRedoNil);
  } else if (v.is_bool()) {
    w.write_u8(kRedoBool);
    w.write_u8(v.as_bool() ? 1 : 0);
  } else if (v.is_int()) {
    w.write_u8(kRedoInt);
    w.write_i64(v.as_int());
  } else if (v.is_real()) {
    w.write_u8(kRedoReal);
    w.write_f64(v.as_real());
  } else if (v.is_str()) {
    w.write_u8(kRedoStr);
    w.write_string(v.as_str());
  } else {
    const vm::ObjectRef ref = v.as_ref();
    w.write_u8(kRedoRef);
    w.write_u64(ref.id.value());
    if (ref.is_null()) {
      w.write_u64(ExportHandle::invalid().value());
      w.write_u32(ClassId::invalid().value());
      w.write_u8(static_cast<std::uint8_t>(vm::ObjectKind::plain));
      return;
    }
    // A ref the surrogate is about to hold must keep resolving after we
    // resume: export it (which also GC-roots it here) unless it names a
    // hoarded replica — the surrogate owns that original already — or a
    // stub of some other surrogate object that escaped the hoard. The
    // handle travels so the peer's stub joins the distributed GC: when the
    // surrogate drops the stub, the release names our export and the
    // object becomes collectible again.
    const vm::Object* obj = vm_.find_object(ref.id);
    ExportHandle h = ExportHandle::invalid();
    if (obj != nullptr && !log.watches(ref.id)) {
      h = refs_.export_object(ref.id);
    }
    w.write_u64(h.value());
    w.write_u32(vm_.class_of(ref.id).value());
    w.write_u8(static_cast<std::uint8_t>(
        obj != nullptr ? obj->kind : vm::ObjectKind::plain));
  }
}

vm::Value Endpoint::read_redo_value(ByteReader& r) {
  switch (r.read_u8()) {
    case kRedoNil: return vm::Value{};
    case kRedoBool: return vm::Value{r.read_u8() != 0};
    case kRedoInt: return vm::Value{r.read_i64()};
    case kRedoReal: return vm::Value{r.read_f64()};
    case kRedoStr: return vm::Value{r.read_string()};
    case kRedoRef: {
      const ObjectId id{r.read_u64()};
      const ExportHandle h{r.read_u64()};
      const ClassId cls{r.read_u32()};
      const auto kind = static_cast<vm::ObjectKind>(r.read_u8());
      if (!id.valid()) return vm::Value{vm::ObjectRef{}};
      // Resolve local-first: a replica's id names our own original. Anything
      // unknown was born on the disconnected client — hold a stub, and
      // remember the initiator's export handle so our eventual stub sweep
      // releases its root.
      if (!vm_.knows(id)) vm_.install_stub(id, cls, kind);
      if (h.valid() && !vm_.is_local(id)) refs_.note_import(h, id);
      return vm::Value{vm::ObjectRef{id}};
    }
    default:
      throw VmError(VmErrorCode::type_mismatch, "bad redo value tag");
  }
}

void Endpoint::write_redo_entry(ByteWriter& w, const vm::RedoEntry& e,
                                const vm::DisconnectLog& log) {
  w.write_u8(static_cast<std::uint8_t>(e.kind));
  w.write_u64(e.obj.value());
  w.write_u64(e.key);
  switch (e.kind) {
    case vm::RedoEntry::Kind::field:
      write_redo_value(w, e.value, log);
      break;
    case vm::RedoEntry::Kind::array_elem: w.write_i64(e.elem); break;
    case vm::RedoEntry::Kind::chars: w.write_string(e.data); break;
  }
}

bool Endpoint::reconcile_log(const vm::DisconnectLog& log) {
  if (peer_ == nullptr) {
    throw VmError(VmErrorCode::null_reference, "endpoint not connected");
  }
  ReconcileTrace trace;
  trace.begin = vm_.clock().now();
  const auto entries = log.replay_order();
  trace.entries = entries.size();
  // A fresh epoch fences every frame from the pre-partition connection (and
  // from any earlier, abandoned reconcile attempt).
  advance_epoch();
  trace.epoch = epoch_;

  ByteWriter prepare;
  prepare.write_u8(static_cast<std::uint8_t>(Op::reconcile_prepare));
  prepare.write_u32(static_cast<std::uint32_t>(entries.size()));
  for (const vm::RedoEntry* e : entries) write_redo_entry(prepare, *e, log);

  try {
    (void)transact(std::move(prepare));
  } catch (const PeerUnavailable&) {
    // PREPARE staged raw bytes at most; the peer's heap is untouched and the
    // caller keeps its log, so a later attempt replays the same mutations.
    reconciles_.push_back(trace);
    throw;
  }
  trace.prepare_acked = vm_.clock().now();

  ByteWriter commit;
  commit.write_u8(static_cast<std::uint8_t>(Op::reconcile_commit));
  commit.write_u32(static_cast<std::uint32_t>(entries.size()));

  try {
    (void)transact(std::move(commit));
  } catch (const PeerUnavailable&) {
    // Replay is atomic on the serving side. If the peer recorded this epoch
    // as applied, only the ack was lost: the mutations landed exactly once
    // and the caller must clear its log. Otherwise the staged bytes die
    // unapplied and the caller retries with the same log later.
    const bool applied =
        peer_ != nullptr && peer_->last_applied_reconcile_epoch_ == epoch_;
    trace.applied_on_peer = applied;
    reconciles_.push_back(trace);
    if (!applied) throw;
    stats_.reconciles_completed += 1;
    stats_.reconcile_replayed_ops += entries.size();
    return true;
  }
  trace.commit_acked = vm_.clock().now();
  trace.committed = true;
  trace.applied_on_peer = true;
  reconciles_.push_back(trace);
  stats_.reconciles_completed += 1;
  stats_.reconcile_replayed_ops += entries.size();
  return true;
}

void Endpoint::apply_staged_reconcile() {
  const std::vector<std::uint8_t> staged = std::move(staged_reconcile_);
  staged_reconcile_.clear();
  has_staged_reconcile_ = false;
  ByteReader sr(staged);
  const auto count = sr.read_u32();
  // Batch-atomic replay: one journal scope covers every entry, so a decode
  // or apply error unwinds the whole log and the initiator can retry it as a
  // unit. Entries arrive in last-write order and every target is one of our
  // own originals (the client only watched hoarded replicas), applied
  // through the same raw mutators incoming RPCs use.
  const std::size_t mark = vm_.journal_begin();
  try {
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto kind = static_cast<vm::RedoEntry::Kind>(sr.read_u8());
      const ObjectId obj{sr.read_u64()};
      const std::uint64_t key = sr.read_u64();
      switch (kind) {
        case vm::RedoEntry::Kind::field:
          vm_.raw_put_field(obj, FieldId{static_cast<std::uint32_t>(key)},
                            read_redo_value(sr));
          break;
        case vm::RedoEntry::Kind::array_elem:
          vm_.raw_array_put(obj, static_cast<std::int64_t>(key),
                            vm::Value{sr.read_i64()});
          break;
        case vm::RedoEntry::Kind::chars:
          vm_.raw_chars_write(obj, static_cast<std::int64_t>(key),
                              sr.read_string());
          break;
        default:
          throw VmError(VmErrorCode::type_mismatch, "bad redo entry kind");
      }
    }
  } catch (...) {
    vm_.journal_rollback(mark);
    throw;
  }
  vm_.journal_commit();
  last_applied_reconcile_epoch_ = epoch_;
}

// --- serving ---------------------------------------------------------------------

std::optional<std::vector<std::uint8_t>> Endpoint::receive_frame(
    std::span<const std::uint8_t> wire) {
  // An incoming frame means the peer is acting: whatever we read ahead of
  // time may be about to change (and anything we cache while serving goes
  // stale the moment the requester resumes — hence the clear on both ends).
  invalidate_windows();
  const auto view = parse_frame(wire);
  if (!view.has_value()) {
    stats_.corrupt_frames_rejected += 1;
    return std::nullopt;
  }
  if (view->epoch < epoch_) {
    // A frame from before the current migration epoch: whatever it asks for
    // refers to a placement that no longer exists. Fence it.
    stats_.stale_frames_fenced += 1;
    return std::nullopt;
  }
  epoch_ = view->epoch;  // adopt the sender's newer fencing token
  if (last_served_seq_ != 0 && view->seq <= last_served_seq_) {
    if (fault_tolerant() && has_cached_response_ &&
        view->seq == last_served_seq_) {
      // A retry of the request we just served: at-most-once execution
      // demands we replay the reply, not the side effects.
      stats_.duplicates_served += 1;
      return make_frame(epoch_, view->seq, cached_response_);
    }
    stats_.stale_frames_fenced += 1;
    return std::nullopt;
  }

  serving_depth_ += 1;
  std::vector<std::uint8_t> resp;
  try {
    resp = serve(view->payload);
  } catch (...) {
    serving_depth_ -= 1;
    throw;
  }
  serving_depth_ -= 1;
  invalidate_windows();
  last_served_seq_ = view->seq;
  if (fault_tolerant()) {
    cached_response_ = resp;
    has_cached_response_ = true;
  }
  last_contact_ = vm_.clock().now();
  auto resp_frame = make_frame(epoch_, view->seq, resp);
  last_resp_frame_ = resp_frame;
  return resp_frame;
}

std::vector<std::uint8_t> Endpoint::serve(
    std::span<const std::uint8_t> request) {
  if (!request.empty() && static_cast<Op>(request[0]) == Op::batch) {
    return serve_batch(request);
  }
  stats_.rpcs_served += 1;
  return serve_one(request);
}

std::vector<std::uint8_t> Endpoint::serve_batch(
    std::span<const std::uint8_t> request) {
  ByteWriter out;
  try {
    ByteReader r(request);
    (void)r.read_u8();  // Op::batch
    const auto count = r.read_u32();
    std::vector<std::span<const std::uint8_t>> ops;
    ops.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      ops.push_back(read_op_section(r));
    }
    // Batch-atomic execution: all sub-ops run inside one journal scope, so
    // an abandoned nested call unwinds every one of them — a retried batch
    // re-executes from clean state, never on top of a partial application.
    // A sub-op's *semantic* error commits (the fault-free per-op contract)
    // but stops the batch: ops after it never ran and never will.
    const std::size_t mark = vm_.journal_begin();
    const std::size_t pmark = pending_.size();
    std::vector<std::vector<std::uint8_t>> replies;
    replies.reserve(count);
    try {
      for (const auto op : ops) {
        stats_.rpcs_served += 1;
        auto reply = serve_one(op);
        const bool failed = !reply.empty() && reply[0] == kStatusVmError;
        replies.push_back(std::move(reply));
        if (failed) break;
      }
    } catch (const PeerUnavailable&) {
      vm_.journal_rollback(mark);
      if (pending_.size() > pmark) pending_.resize(pmark);
      throw;
    }
    vm_.journal_commit();
    out.write_u8(kStatusOk);
    out.write_u32(static_cast<std::uint32_t>(replies.size()));
    for (const auto& reply : replies) write_op_section(out, reply);
  } catch (const VmError& e) {
    // A malformed batch envelope; no sub-op executed.
    ByteWriter err;
    err.write_u8(kStatusVmError);
    err.write_u8(static_cast<std::uint8_t>(e.code()));
    err.write_string(e.what());
    return std::move(err).take();
  }
  return std::move(out).take();
}

std::vector<std::uint8_t> Endpoint::serve_one(
    std::span<const std::uint8_t> request) {
  ByteWriter out;
  try {
    ByteReader r(request);
    const auto op = static_cast<Op>(r.read_u8());
    switch (op) {
      case Op::invoke: {
        const ObjectId target = resolve_target(r);
        const ClassId cls{r.read_u32()};
        (void)cls;
        const MethodId method{r.read_u32()};
        const auto argc = r.read_u32();
        std::vector<vm::Value> args;
        args.reserve(argc);
        for (std::uint32_t i = 0; i < argc; ++i) {
          args.push_back(read_value(r, *this));
        }
        // Journal the frame: if a nested call back to the peer is abandoned
        // mid-execution, the partial mutations are rolled back so a local
        // re-execution starts from clean state. Semantic errors (VmError)
        // commit — partial effects are the fault-free contract.
        const std::size_t mark = vm_.journal_begin();
        const std::size_t pmark = pending_.size();
        vm::Value ret;
        try {
          ret = vm_.run_incoming_invoke(target, method, args);
          // The requester resumes when this reply lands and may then read
          // its own state directly: any write-behind ops this invocation
          // queued against it must land first, inside the same rollback
          // scope — the flush is part of executing the invoke.
          send_queue();
        } catch (const PeerUnavailable&) {
          vm_.journal_rollback(mark);
          // Deferred writes of the rolled-back execution die with it.
          if (pending_.size() > pmark) pending_.resize(pmark);
          throw;
        } catch (...) {
          vm_.journal_commit();
          throw;
        }
        vm_.journal_commit();
        out.write_u8(kStatusOk);
        write_value(out, ret, *this);
        break;
      }
      case Op::invoke_static: {
        const ClassId cls{r.read_u32()};
        const MethodId method{r.read_u32()};
        const auto argc = r.read_u32();
        std::vector<vm::Value> args;
        args.reserve(argc);
        for (std::uint32_t i = 0; i < argc; ++i) {
          args.push_back(read_value(r, *this));
        }
        const std::size_t mark = vm_.journal_begin();
        const std::size_t pmark = pending_.size();
        vm::Value ret;
        try {
          ret = vm_.run_incoming_invoke_static(cls, method, args);
          send_queue();  // see Op::invoke
        } catch (const PeerUnavailable&) {
          vm_.journal_rollback(mark);
          if (pending_.size() > pmark) pending_.resize(pmark);
          throw;
        } catch (...) {
          vm_.journal_commit();
          throw;
        }
        vm_.journal_commit();
        out.write_u8(kStatusOk);
        write_value(out, ret, *this);
        break;
      }
      case Op::get_field: {
        const ObjectId target = resolve_target(r);
        const FieldId field{r.read_u32()};
        out.write_u8(kStatusOk);
        write_value(out, vm_.raw_get_field(target, field), *this);
        break;
      }
      case Op::put_field: {
        const ObjectId target = resolve_target(r);
        const FieldId field{r.read_u32()};
        vm_.raw_put_field(target, field, read_value(r, *this));
        out.write_u8(kStatusOk);
        break;
      }
      case Op::get_static: {
        const ClassId cls{r.read_u32()};
        const auto slot = r.read_u32();
        out.write_u8(kStatusOk);
        write_value(out, vm_.raw_get_static(cls, slot), *this);
        break;
      }
      case Op::put_static: {
        const ClassId cls{r.read_u32()};
        const auto slot = r.read_u32();
        vm_.raw_put_static(cls, slot, read_value(r, *this));
        out.write_u8(kStatusOk);
        break;
      }
      case Op::array_get: {
        const ObjectId target = resolve_target(r);
        const std::int64_t index = r.read_i64();
        out.write_u8(kStatusOk);
        write_value(out, vm_.raw_array_get(target, index), *this);
        break;
      }
      case Op::array_put: {
        const ObjectId target = resolve_target(r);
        const std::int64_t index = r.read_i64();
        vm_.raw_array_put(target, index, read_value(r, *this));
        out.write_u8(kStatusOk);
        break;
      }
      case Op::array_len: {
        const ObjectId target = resolve_target(r);
        out.write_u8(kStatusOk);
        out.write_i64(vm_.raw_array_length(target));
        break;
      }
      case Op::chars_read: {
        const ObjectId target = resolve_target(r);
        const std::int64_t offset = r.read_i64();
        const std::int64_t length = r.read_i64();
        out.write_u8(kStatusOk);
        out.write_string(vm_.raw_chars_read(target, offset, length));
        break;
      }
      case Op::chars_write: {
        const ObjectId target = resolve_target(r);
        const std::int64_t offset = r.read_i64();
        const std::string data = r.read_string();
        vm_.raw_chars_write(target, offset, data);
        out.write_u8(kStatusOk);
        break;
      }
      case Op::release: {
        const auto count = r.read_u32();
        for (std::uint32_t i = 0; i < count; ++i) {
          refs_.release_export_handle(ExportHandle{r.read_u64()});
        }
        out.write_u8(kStatusOk);
        break;
      }
      case Op::migrate_prepare: {
        // Stage the encoded batch verbatim without touching the heap:
        // adoption is deferred to COMMIT, so an abort at any message
        // boundary of the transfer leaves this VM exactly as it was. A
        // higher-epoch PREPARE supersedes stale staging from an aborted
        // earlier migration; disconnect drops it entirely.
        staged_migration_.assign(request.begin() + 1, request.end());
        staged_epoch_ = epoch_;
        has_staged_migration_ = true;
        out.write_u8(kStatusOk);
        break;
      }
      case Op::migrate_commit: {
        const auto expected = r.read_u32();
        if (!has_staged_migration_ || staged_epoch_ != epoch_) {
          throw VmError(VmErrorCode::type_mismatch,
                        "migrate commit without a staged batch");
        }
        const std::vector<std::uint8_t> staged = std::move(staged_migration_);
        staged_migration_.clear();
        has_staged_migration_ = false;
        ByteReader sr(staged);
        const auto count = sr.read_u32();
        if (count != expected) {
          throw VmError(VmErrorCode::type_mismatch,
                        "migrate commit count mismatch");
        }
        std::vector<vm::Object*> adopted;
        adopted.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
          const ObjectHeader h = read_object_header(sr);
          auto obj = std::make_unique<vm::Object>();
          obj->id = h.id;
          obj->cls = h.cls;
          obj->kind = h.kind;
          obj->fields.assign(h.field_count, vm::Value{});
          obj->ints.assign(static_cast<std::size_t>(h.ints_len), 0);
          obj->chars.assign(static_cast<std::size_t>(h.chars_len), '\0');
          vm::Object* raw = obj.get();
          refs_.forget_import(h.id);
          vm_.migrate_in(std::move(obj));
          // Pin until the whole batch lands: migrate_in may GC to make room,
          // and earlier adoptees are not yet referenced by anything local.
          vm_.add_root(vm::ObjectRef{raw->id});
          adopted.push_back(raw);
        }
        for (vm::Object* obj : adopted) {
          const std::int64_t before = obj->size_bytes();
          read_object_payload(sr, *obj, *this);
          // String fields arrive in the payload; account their bytes.
          vm_.heap().resync_used(*obj, before);
        }
        out.write_u8(kStatusOk);
        out.write_u32(count);
        for (vm::Object* obj : adopted) {
          out.write_u64(refs_.export_object(obj->id).value());
          vm_.remove_root(vm::ObjectRef{obj->id});
        }
        break;
      }
      case Op::ping: {
        // Heartbeat probe: prove liveness, touch nothing.
        out.write_u8(kStatusOk);
        break;
      }
      case Op::reconcile_prepare: {
        // Stage the encoded redo log verbatim without touching the heap —
        // the same deferred-adoption shape as migrate_prepare, so a link
        // death at any boundary of the reconcile leaves this VM exactly as
        // it was. A higher-epoch PREPARE (a retried reconcile) supersedes
        // stale staging; disconnect drops it entirely.
        staged_reconcile_.assign(request.begin() + 1, request.end());
        staged_reconcile_epoch_ = epoch_;
        has_staged_reconcile_ = true;
        out.write_u8(kStatusOk);
        break;
      }
      case Op::reconcile_commit: {
        const auto expected = r.read_u32();
        if (!has_staged_reconcile_ || staged_reconcile_epoch_ != epoch_) {
          throw VmError(VmErrorCode::type_mismatch,
                        "reconcile commit without a staged log");
        }
        ByteReader peek(staged_reconcile_);
        if (peek.read_u32() != expected) {
          throw VmError(VmErrorCode::type_mismatch,
                        "reconcile commit count mismatch");
        }
        apply_staged_reconcile();
        out.write_u8(kStatusOk);
        break;
      }
      case Op::get_object: {
        // Read-ahead: snapshot whole plain objects (the demanded target
        // first, then prefetch candidates). Resolution is lenient — a
        // candidate that was collected, migrated away, or is not a plain
        // object is reported absent, not an error; the sender falls back to
        // the per-op path for the demanded target if it needs to.
        const auto count = r.read_u32();
        out.write_u8(kStatusOk);
        out.write_u32(count);
        for (std::uint32_t i = 0; i < count; ++i) {
          const WireRef wire = read_wire_ref(r);
          out.write_u64(wire.id.value());
          vm::Object* obj = nullptr;
          try {
            const vm::ObjectRef ref = translate_in(wire);
            obj = vm_.find_object(ref.id);
          } catch (const VmError&) {
            obj = nullptr;
          }
          if (obj == nullptr || obj->kind != vm::ObjectKind::plain) {
            out.write_u8(kObjectAbsent);
            continue;
          }
          // An object larger than one bandwidth-delay product is never
          // shipped whole; the requester reads it by slot instead.
          std::size_t bytes = 4;
          for (const vm::Value& v : obj->fields) bytes += encoded_size(v);
          if (bytes > window_budget()) {
            out.write_u8(kObjectOversized);
            continue;
          }
          out.write_u8(kObjectShipped);
          out.write_u32(static_cast<std::uint32_t>(obj->fields.size()));
          for (const vm::Value& v : obj->fields) write_value(out, v, *this);
        }
        break;
      }
      case Op::get_slots: {
        // Read-ahead window: slots begin, begin + stride, ... of a plain
        // object's fields or an array's elements, at most `count` of them
        // and at most one bandwidth-delay product of encoded values. The
        // demanded first slot reads exactly like its single-op request,
        // errors included; the rest stop quietly at the object's end.
        const ObjectId target = resolve_target(r);
        const auto elem = static_cast<Op>(r.read_u8());
        const std::int64_t begin = r.read_i64();
        const std::int64_t stride = r.read_i64();
        const auto count = r.read_u32();
        if (stride < 1 || (elem != Op::get_field && elem != Op::array_get)) {
          throw VmError(VmErrorCode::type_mismatch, "bad read-ahead window");
        }
        const auto read = [&](std::int64_t slot) {
          return elem == Op::get_field
                     ? vm_.raw_get_field(
                           target, FieldId{static_cast<std::uint32_t>(slot)})
                     : vm_.raw_array_get(target, slot);
        };
        std::vector<vm::Value> values{read(begin)};
        const vm::Object& obj = *vm_.find_object(target);
        const std::int64_t len =
            elem == Op::get_field
                ? static_cast<std::int64_t>(obj.fields.size())
                : obj.array_length();
        const std::size_t budget = window_budget();
        std::size_t bytes = encoded_size(values.front());
        for (std::int64_t slot = begin;
             values.size() < count && stride < len - slot;) {
          slot += stride;
          vm::Value v = read(slot);
          bytes += encoded_size(v);
          if (bytes > budget) break;
          values.push_back(std::move(v));
        }
        out.write_u8(kStatusOk);
        out.write_u32(static_cast<std::uint32_t>(values.size()));
        for (const vm::Value& v : values) write_value(out, v, *this);
        break;
      }
      default:
        throw VmError(VmErrorCode::type_mismatch, "unknown rpc opcode");
    }
  } catch (const VmError& e) {
    ByteWriter err;
    err.write_u8(kStatusVmError);
    err.write_u8(static_cast<std::uint8_t>(e.code()));
    err.write_string(e.what());
    return std::move(err).take();
  }
  return std::move(out).take();
}

}  // namespace aide::rpc
