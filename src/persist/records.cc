#include "src/persist/records.h"

#include <algorithm>

#include "src/common/bytes.h"

namespace tetrisched {
namespace {

constexpr uint8_t kEventVersion = 1;
// v2 appended RecoveredState::service_jobs; v3 drops the list of finished
// job ids, which no recovery path read. v1 snapshots (no service layer)
// still decode, with an empty service-jobs table, and v1/v2 finished lists
// are read and discarded.
constexpr uint8_t kSnapshotVersion = 3;
constexpr uint8_t kMinSnapshotVersion = 1;

void PutCounts(ByteWriter& writer, const std::map<PartitionId, int>& counts) {
  writer.PutU32(static_cast<uint32_t>(counts.size()));
  for (const auto& [partition, count] : counts) {
    writer.PutI64(partition);
    writer.PutI64(count);
  }
}

bool GetCounts(ByteReader& reader, std::map<PartitionId, int>* counts) {
  counts->clear();
  uint32_t size = reader.GetU32();
  for (uint32_t i = 0; i < size && reader.ok(); ++i) {
    PartitionId partition = static_cast<PartitionId>(reader.GetI64());
    int count = static_cast<int>(reader.GetI64());
    (*counts)[partition] = count;
  }
  return reader.ok();
}

void PutGang(ByteWriter& writer, const GangRecord& gang) {
  writer.PutI64(gang.job);
  PutCounts(writer, gang.counts);
  writer.PutI64(gang.start);
  writer.PutI64(gang.expected_end);
  writer.PutI64(gang.est_duration);
}

bool GetGang(ByteReader& reader, GangRecord* gang) {
  gang->job = reader.GetI64();
  if (!GetCounts(reader, &gang->counts)) {
    return false;
  }
  gang->start = reader.GetI64();
  gang->expected_end = reader.GetI64();
  gang->est_duration = reader.GetI64();
  return reader.ok();
}

void PutJobIds(ByteWriter& writer, const std::vector<JobId>& ids) {
  writer.PutU32(static_cast<uint32_t>(ids.size()));
  for (JobId id : ids) {
    writer.PutI64(id);
  }
}

bool GetJobIds(ByteReader& reader, std::vector<JobId>* ids) {
  ids->clear();
  uint32_t size = reader.GetU32();
  ids->reserve(std::min<uint32_t>(size, 1u << 20));
  for (uint32_t i = 0; i < size && reader.ok(); ++i) {
    ids->push_back(reader.GetI64());
  }
  return reader.ok();
}

void PutRayon(ByteWriter& writer, const RayonState& rayon) {
  writer.PutI64(rayon.capacity);
  writer.PutI64(rayon.num_accepted);
  writer.PutI64(rayon.num_rejected);
  writer.PutU32(static_cast<uint32_t>(rayon.deltas.size()));
  for (const auto& [time, delta] : rayon.deltas) {
    writer.PutI64(time);
    writer.PutI64(delta);
  }
}

bool GetRayon(ByteReader& reader, RayonState* rayon) {
  rayon->capacity = static_cast<int>(reader.GetI64());
  rayon->num_accepted = static_cast<int>(reader.GetI64());
  rayon->num_rejected = static_cast<int>(reader.GetI64());
  rayon->deltas.clear();
  uint32_t size = reader.GetU32();
  for (uint32_t i = 0; i < size && reader.ok(); ++i) {
    SimTime time = reader.GetI64();
    int delta = static_cast<int>(reader.GetI64());
    rayon->deltas.emplace_back(time, delta);
  }
  return reader.ok();
}

// Mirrors RayonAdmission::Submit's agenda arithmetic (no zero-erase).
void RayonReplayAdmit(RayonState& rayon, TimeRange interval, int k) {
  auto bump = [&](SimTime time, int delta) {
    auto it = std::lower_bound(
        rayon.deltas.begin(), rayon.deltas.end(), time,
        [](const auto& entry, SimTime t) { return entry.first < t; });
    if (it != rayon.deltas.end() && it->first == time) {
      it->second += delta;
    } else {
      rayon.deltas.insert(it, {time, delta});
    }
  };
  bump(interval.start, k);
  bump(interval.end, -k);
  ++rayon.num_accepted;
}

// Mirrors RayonAdmission::Release (erases agenda steps that cancel out).
void RayonReplayRelease(RayonState& rayon, TimeRange interval, int k) {
  if (interval.empty() || k <= 0) {
    return;
  }
  auto bump = [&](SimTime time, int delta) {
    auto it = std::lower_bound(
        rayon.deltas.begin(), rayon.deltas.end(), time,
        [](const auto& entry, SimTime t) { return entry.first < t; });
    if (it != rayon.deltas.end() && it->first == time) {
      it->second += delta;
    } else {
      rayon.deltas.insert(it, {time, delta});
    }
  };
  bump(interval.start, -k);
  bump(interval.end, k);
  for (SimTime time : {interval.start, interval.end}) {
    auto it = std::lower_bound(
        rayon.deltas.begin(), rayon.deltas.end(), time,
        [](const auto& entry, SimTime t) { return entry.first < t; });
    if (it != rayon.deltas.end() && it->first == time && it->second == 0) {
      rayon.deltas.erase(it);
    }
  }
}

}  // namespace

const char* ToString(DurableEventKind kind) {
  switch (kind) {
    case DurableEventKind::kRayonAdmit:
      return "rayon_admit";
    case DurableEventKind::kRayonRelease:
      return "rayon_release";
    case DurableEventKind::kRayonReject:
      return "rayon_reject";
    case DurableEventKind::kSloUpdate:
      return "slo_update";
    case DurableEventKind::kCommitIntent:
      return "commit_intent";
    case DurableEventKind::kGangLaunch:
      return "gang_launch";
    case DurableEventKind::kCommitApplied:
      return "commit_applied";
    case DurableEventKind::kGangComplete:
      return "gang_complete";
    case DurableEventKind::kGangKill:
      return "gang_kill";
    case DurableEventKind::kGangPreempt:
      return "gang_preempt";
    case DurableEventKind::kJobDropped:
      return "job_dropped";
    case DurableEventKind::kPlanAheadAdapt:
      return "plan_ahead_adapt";
    case DurableEventKind::kEpochBump:
      return "epoch_bump";
    case DurableEventKind::kServiceSubmit:
      return "service_submit";
  }
  return "unknown";
}

std::string EncodeEvent(const DurableEvent& event) {
  ByteWriter writer;
  writer.PutU8(kEventVersion);
  writer.PutU8(static_cast<uint8_t>(event.kind));
  writer.PutI64(event.time);
  writer.PutI64(event.job);
  writer.PutI64(event.k);
  writer.PutI64(event.interval.start);
  writer.PutI64(event.interval.end);
  writer.PutI64(event.retries);
  writer.PutI64(event.eligible_at);
  writer.PutU8(event.slo_class);
  writer.PutU8(event.preferred ? 1 : 0);
  writer.PutI64(event.runtime);
  PutGang(writer, event.gang);
  writer.PutU32(static_cast<uint32_t>(event.gangs.size()));
  for (const GangRecord& gang : event.gangs) {
    PutGang(writer, gang);
  }
  PutJobIds(writer, event.drops);
  PutJobIds(writer, event.preempts);
  writer.PutString(event.blob);
  writer.PutI64(event.node);
  writer.PutI64(static_cast<int64_t>(event.epoch));
  return writer.Take();
}

bool DecodeEvent(std::string_view bytes, DurableEvent* event) {
  ByteReader reader(bytes);
  if (reader.GetU8() != kEventVersion) {
    return false;
  }
  event->kind = static_cast<DurableEventKind>(reader.GetU8());
  event->time = reader.GetI64();
  event->job = reader.GetI64();
  event->k = static_cast<int>(reader.GetI64());
  event->interval.start = reader.GetI64();
  event->interval.end = reader.GetI64();
  event->retries = static_cast<int>(reader.GetI64());
  event->eligible_at = reader.GetI64();
  event->slo_class = reader.GetU8();
  event->preferred = reader.GetU8() != 0;
  event->runtime = reader.GetI64();
  if (!GetGang(reader, &event->gang)) {
    return false;
  }
  uint32_t num_gangs = reader.GetU32();
  event->gangs.clear();
  for (uint32_t i = 0; i < num_gangs && reader.ok(); ++i) {
    GangRecord gang;
    if (!GetGang(reader, &gang)) {
      return false;
    }
    event->gangs.push_back(std::move(gang));
  }
  if (!GetJobIds(reader, &event->drops) ||
      !GetJobIds(reader, &event->preempts)) {
    return false;
  }
  event->blob = reader.GetString();
  event->node = static_cast<NodeId>(reader.GetI64());
  event->epoch = static_cast<uint64_t>(reader.GetI64());
  return reader.ok() && reader.AtEnd();
}

void ApplyEvent(RecoveredState& state, const DurableEvent& event) {
  switch (event.kind) {
    case DurableEventKind::kRayonAdmit:
      RayonReplayAdmit(state.rayon, event.interval, event.k);
      break;
    case DurableEventKind::kRayonRelease:
      RayonReplayRelease(state.rayon, event.interval, event.k);
      break;
    case DurableEventKind::kRayonReject:
      ++state.rayon.num_rejected;
      break;
    case DurableEventKind::kSloUpdate:
      state.slo[event.job] =
          SloRecord{event.job, event.slo_class, event.interval};
      break;
    case DurableEventKind::kCommitIntent:
      state.pending_intent =
          PendingIntent{event.time, event.gangs, event.drops, event.preempts};
      break;
    case DurableEventKind::kGangLaunch:
      state.running[event.gang.job] = event.gang;
      if (auto it = state.retries.find(event.gang.job);
          it != state.retries.end()) {
        it->second.last_kill = -1;  // restart resolves the kill gap
      }
      break;
    case DurableEventKind::kCommitApplied:
      state.pending_intent.reset();
      state.policy_state = event.blob;
      break;
    case DurableEventKind::kGangComplete:
      state.running.erase(event.job);
      state.service_jobs.erase(event.job);
      state.completions.push_back(
          CompletionRecord{event.job, event.preferred, event.runtime});
      break;
    case DurableEventKind::kGangKill:
      state.running.erase(event.job);
      state.retries[event.job] =
          RetryRecord{event.job, event.retries, event.eligible_at, event.time};
      break;
    case DurableEventKind::kGangPreempt:
      state.running.erase(event.job);
      break;
    case DurableEventKind::kJobDropped:
      state.running.erase(event.job);
      state.service_jobs.erase(event.job);
      break;
    case DurableEventKind::kServiceSubmit:
      state.service_jobs[event.job] = event.blob;
      break;
    case DurableEventKind::kPlanAheadAdapt:
      // Informational only: the adapted AIMD state is recovered from the
      // kCommitApplied policy blob, not replayed from these records.
      break;
    case DurableEventKind::kEpochBump: {
      // Max-merge keeps the table monotonic even when a snapshot already
      // carries a newer epoch than a replayed record.
      uint64_t& epoch = state.epochs[event.node];
      epoch = std::max(epoch, event.epoch);
      break;
    }
  }
}

std::string EncodeSnapshot(const RecoveredState& state) {
  ByteWriter writer;
  writer.PutU8(kSnapshotVersion);
  writer.PutI64(state.checkpoint_time);
  PutRayon(writer, state.rayon);

  writer.PutU32(static_cast<uint32_t>(state.running.size()));
  for (const auto& [job, gang] : state.running) {
    PutGang(writer, gang);
  }

  writer.PutU32(static_cast<uint32_t>(state.retries.size()));
  for (const auto& [job, retry] : state.retries) {
    writer.PutI64(retry.job);
    writer.PutI64(retry.retries);
    writer.PutI64(retry.eligible_at);
    writer.PutI64(retry.last_kill);
  }

  writer.PutU32(static_cast<uint32_t>(state.slo.size()));
  for (const auto& [job, record] : state.slo) {
    writer.PutI64(record.job);
    writer.PutU8(record.slo_class);
    writer.PutI64(record.reservation.start);
    writer.PutI64(record.reservation.end);
  }

  writer.PutU32(static_cast<uint32_t>(state.completions.size()));
  for (const CompletionRecord& completion : state.completions) {
    writer.PutI64(completion.job);
    writer.PutU8(completion.preferred ? 1 : 0);
    writer.PutI64(completion.runtime);
  }

  writer.PutString(state.policy_state);
  // Snapshots are only taken at consistent points, so pending_intent is
  // encoded as a presence flag for completeness.
  writer.PutU8(state.pending_intent.has_value() ? 1 : 0);
  if (state.pending_intent.has_value()) {
    const PendingIntent& intent = *state.pending_intent;
    writer.PutI64(intent.time);
    writer.PutU32(static_cast<uint32_t>(intent.gangs.size()));
    for (const GangRecord& gang : intent.gangs) {
      PutGang(writer, gang);
    }
    PutJobIds(writer, intent.drops);
    PutJobIds(writer, intent.preempts);
  }
  writer.PutU32(static_cast<uint32_t>(state.epochs.size()));
  for (const auto& [node, epoch] : state.epochs) {
    writer.PutI64(node);
    writer.PutI64(static_cast<int64_t>(epoch));
  }
  writer.PutU32(static_cast<uint32_t>(state.service_jobs.size()));
  for (const auto& [job, spec] : state.service_jobs) {
    writer.PutI64(job);
    writer.PutString(spec);
  }
  return writer.Take();
}

bool DecodeSnapshot(std::string_view bytes, RecoveredState* state) {
  *state = RecoveredState{};
  ByteReader reader(bytes);
  uint8_t version = reader.GetU8();
  if (version < kMinSnapshotVersion || version > kSnapshotVersion) {
    return false;
  }
  state->checkpoint_time = reader.GetI64();
  if (!GetRayon(reader, &state->rayon)) {
    return false;
  }

  uint32_t num_running = reader.GetU32();
  for (uint32_t i = 0; i < num_running && reader.ok(); ++i) {
    GangRecord gang;
    if (!GetGang(reader, &gang)) {
      return false;
    }
    state->running[gang.job] = std::move(gang);
  }

  uint32_t num_retries = reader.GetU32();
  for (uint32_t i = 0; i < num_retries && reader.ok(); ++i) {
    RetryRecord retry;
    retry.job = reader.GetI64();
    retry.retries = static_cast<int>(reader.GetI64());
    retry.eligible_at = reader.GetI64();
    retry.last_kill = reader.GetI64();
    state->retries[retry.job] = retry;
  }

  if (version < 3) {
    uint32_t num_finished = reader.GetU32();
    for (uint32_t i = 0; i < num_finished && reader.ok(); ++i) {
      reader.GetI64();
    }
  }

  uint32_t num_slo = reader.GetU32();
  for (uint32_t i = 0; i < num_slo && reader.ok(); ++i) {
    SloRecord record;
    record.job = reader.GetI64();
    record.slo_class = reader.GetU8();
    record.reservation.start = reader.GetI64();
    record.reservation.end = reader.GetI64();
    state->slo[record.job] = record;
  }

  uint32_t num_completions = reader.GetU32();
  for (uint32_t i = 0; i < num_completions && reader.ok(); ++i) {
    CompletionRecord completion;
    completion.job = reader.GetI64();
    completion.preferred = reader.GetU8() != 0;
    completion.runtime = reader.GetI64();
    state->completions.push_back(completion);
  }

  state->policy_state = reader.GetString();
  if (reader.GetU8() != 0) {
    PendingIntent intent;
    intent.time = reader.GetI64();
    uint32_t num_gangs = reader.GetU32();
    for (uint32_t i = 0; i < num_gangs && reader.ok(); ++i) {
      GangRecord gang;
      if (!GetGang(reader, &gang)) {
        return false;
      }
      intent.gangs.push_back(std::move(gang));
    }
    if (!GetJobIds(reader, &intent.drops) ||
        !GetJobIds(reader, &intent.preempts)) {
      return false;
    }
    state->pending_intent = std::move(intent);
  }
  uint32_t num_epochs = reader.GetU32();
  for (uint32_t i = 0; i < num_epochs && reader.ok(); ++i) {
    NodeId node = static_cast<NodeId>(reader.GetI64());
    uint64_t epoch = static_cast<uint64_t>(reader.GetI64());
    state->epochs[node] = epoch;
  }
  if (version >= 2) {
    uint32_t num_service = reader.GetU32();
    for (uint32_t i = 0; i < num_service && reader.ok(); ++i) {
      JobId job = reader.GetI64();
      state->service_jobs[job] = reader.GetString();
    }
  }
  return reader.ok() && reader.AtEnd();
}

}  // namespace tetrisched
