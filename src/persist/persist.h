// Crash-tolerant scheduler state: write-ahead journaling, periodic
// snapshots, and recovery (DESIGN.md §11).
//
// PersistenceManager owns the durability policy on top of a JournalStorage:
//   * Append() frames one DurableEvent (CRC32, length-prefixed) and appends
//     it to the journal,
//   * Checkpoint() serializes the full RecoveredState as the snapshot
//     (replaced crash-atomically) and truncates the journal,
//   * MaybeCheckpoint() applies the snapshot cadence
//     (PersistOptions::snapshot_every journal records),
//   * Recover() loads the snapshot, replays every intact journal record on
//     top of it, and truncates a torn or corrupt tail at the first bad CRC
//     (one warning per dropped record) instead of aborting.
//
// Recovery counters and durations flow into the global metrics registry
// (tetrisched_persist_* instruments, DESIGN.md §10).

#ifndef TETRISCHED_PERSIST_PERSIST_H_
#define TETRISCHED_PERSIST_PERSIST_H_

#include <cstdint>
#include <memory>

#include "src/persist/journal.h"
#include "src/persist/records.h"

namespace tetrisched {

struct PersistOptions {
  // Journal records between snapshots; 0 disables automatic checkpoints
  // (the journal then grows until Checkpoint() is called explicitly).
  int snapshot_every = 256;
  // Warn per record dropped from a torn/corrupt journal tail.
  bool log_dropped = true;
};

struct RecoveryResult {
  RecoveredState state;
  bool snapshot_loaded = false;
  int replayed = 0;         // intact journal records applied
  int dropped = 0;          // torn/corrupt tail records truncated away
  int undecodable = 0;      // CRC-clean frames whose payload failed to parse
  double recover_ms = 0.0;  // wall-clock spent in Recover()
};

class PersistenceManager {
 public:
  explicit PersistenceManager(std::unique_ptr<JournalStorage> storage,
                              PersistOptions options = {});

  // Write-ahead append. Returns the number of journal records accumulated
  // since the last checkpoint.
  int64_t Append(const DurableEvent& event);

  // Serializes `state` as the new snapshot and truncates the journal.
  void Checkpoint(const RecoveredState& state);

  // Checkpoint iff the cadence says so; returns true when one was taken.
  bool MaybeCheckpoint(const RecoveredState& state);

  // Snapshot load + journal replay; truncates the journal's bad tail (the
  // surviving prefix is kept so a second recovery is byte-identical).
  RecoveryResult Recover();

  int64_t journal_records() const { return journal_records_; }
  int64_t snapshots_taken() const { return snapshots_taken_; }
  const PersistOptions& options() const { return options_; }
  JournalStorage& storage() { return *storage_; }

 private:
  std::unique_ptr<JournalStorage> storage_;
  PersistOptions options_;
  int64_t journal_records_ = 0;  // since the last checkpoint
  int64_t snapshots_taken_ = 0;
};

}  // namespace tetrisched

#endif  // TETRISCHED_PERSIST_PERSIST_H_
