#include "src/persist/persist.h"

#include <chrono>

#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/obs/provenance.h"

namespace tetrisched {
namespace {

// Registry-backed persistence instruments (DESIGN.md §10). Process-wide,
// like every other tetrisched_* instrument; SimMetrics keeps per-run copies.
struct PersistInstruments {
  Counter* appends;
  Counter* snapshots;
  Counter* recoveries;
  Counter* replayed;
  Counter* dropped;
  Histogram* recovery_ms;
  Histogram* replay_records;
};

PersistInstruments& Instruments() {
  MetricsRegistry& registry = GlobalMetrics();
  static const std::vector<double> kRecordBounds{
      0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000};
  static PersistInstruments instruments{
      registry.GetCounter("tetrisched_persist_journal_appends_total"),
      registry.GetCounter("tetrisched_persist_snapshots_total"),
      registry.GetCounter("tetrisched_persist_recoveries_total"),
      registry.GetCounter("tetrisched_persist_journal_replayed_total"),
      registry.GetCounter("tetrisched_persist_journal_dropped_total"),
      registry.GetHistogram("tetrisched_persist_recovery_ms"),
      registry.GetHistogram("tetrisched_persist_replay_records",
                            kRecordBounds),
  };
  return instruments;
}

}  // namespace

PersistenceManager::PersistenceManager(
    std::unique_ptr<JournalStorage> storage, PersistOptions options)
    : storage_(std::move(storage)), options_(options) {}

int64_t PersistenceManager::Append(const DurableEvent& event) {
  storage_->AppendJournal(EncodeFrame(EncodeEvent(event)));
  ++journal_records_;
  Instruments().appends->Increment();
  return journal_records_;
}

void PersistenceManager::Checkpoint(const RecoveredState& state) {
  storage_->WriteSnapshot(EncodeSnapshot(state));
  storage_->TruncateJournal();
  journal_records_ = 0;
  ++snapshots_taken_;
  Instruments().snapshots->Increment();
}

bool PersistenceManager::MaybeCheckpoint(const RecoveredState& state) {
  if (!CheckpointDue()) {
    return false;
  }
  Checkpoint(state);
  return true;
}

RecoveryResult PersistenceManager::Recover() {
  auto start = std::chrono::steady_clock::now();
  RecoveryResult result;

  std::string snapshot_bytes = storage_->ReadSnapshot();
  if (!snapshot_bytes.empty()) {
    if (DecodeSnapshot(snapshot_bytes, &result.state)) {
      result.snapshot_loaded = true;
    } else {
      // A half-written snapshot cannot exist (atomic replace); a corrupt
      // one means media damage. Recover what the journal alone holds.
      TETRI_LOG(kWarning)
          << "persist: snapshot failed to decode; replaying journal from "
             "an empty state";
      result.state = RecoveredState{};
    }
  }

  std::string journal_bytes = storage_->ReadJournal();
  DecodedJournal decoded =
      DecodeFrames(journal_bytes, options_.log_dropped);
  for (const std::string& payload : decoded.payloads) {
    DurableEvent event;
    if (!DecodeEvent(payload, &event)) {
      // CRC-clean but semantically undecodable (version skew): skip the
      // record but keep replaying — later records are independently framed.
      ++result.undecodable;
      TETRI_LOG(kWarning)
          << "persist: skipping undecodable journal record ("
          << payload.size() << " bytes)";
      continue;
    }
    ApplyEvent(result.state, event);
    ++result.replayed;
    if (ProvenanceRecorder::Global().enabled()) {
      // One provenance record per replayed journal record, so the flight
      // recorder shows exactly which durable history rebuilt the RM view.
      ProvenanceRecord record;
      record.kind = ProvKind::kReplay;
      record.time = event.time;
      record.job = event.job;
      record.label = ToString(event.kind);
      ProvenanceRecorder::Global().Record(std::move(record));
    }
  }
  result.dropped = decoded.dropped_records;

  if (decoded.valid_bytes < journal_bytes.size()) {
    // Persist the truncation so a second recovery (or a crash during this
    // one) sees exactly the same intact prefix.
    std::string prefix = journal_bytes.substr(0, decoded.valid_bytes);
    storage_->TruncateJournal();
    storage_->AppendJournal(prefix);
  }
  journal_records_ = result.replayed;

  result.recover_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  PersistInstruments& instruments = Instruments();
  instruments.recoveries->Increment();
  instruments.replayed->Increment(result.replayed);
  if (result.dropped > 0) {
    instruments.dropped->Increment(result.dropped);
  }
  instruments.recovery_ms->Observe(result.recover_ms);
  instruments.replay_records->Observe(static_cast<double>(result.replayed));
  return result;
}

}  // namespace tetrisched
