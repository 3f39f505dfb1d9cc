#ifndef PINSQL_STORE_INSTANCE_JOURNAL_H_
#define PINSQL_STORE_INSTANCE_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "logstore/log_store.h"
#include "online/instance_core.h"
#include "store/env.h"
#include "store/wal.h"
#include "util/status.h"

namespace pinsql::store {

/// The durable half of one instance: a segment WAL in `dir` that journals
/// what producers hand an InstanceCore, in exactly the order the core
/// accepted it, and replays it back into a core on recovery.
///
/// Accepted records are buffered and written as one batch frame before the
/// next accepted sample, so a replay groups every record with the sample
/// that closed its second. Dropped records are never journaled. While no
/// writer is open (before Open, after Close, or when Open failed) the
/// journal is a pass-through: producers still reach the core and nothing
/// buffers.
///
/// Threading: ingest and template calls are safe from any number of
/// threads; one mutex makes each core ingest and its journal append one
/// atomic step. Scan, Apply, Open, Close and writer() belong to the owning
/// service's control thread.
class InstanceJournal {
 public:
  InstanceJournal(Env* env, std::string dir, const WalOptions& options,
                  online::InstanceCore* core);

  InstanceJournal(const InstanceJournal&) = delete;
  InstanceJournal& operator=(const InstanceJournal&) = delete;

  /// Creates the journal directory if needed and scans it from `start` (a
  /// checkpoint LSN; {0,0} replays everything), handing every valid frame
  /// to `fn` — usually after Apply(). The next Open() starts a fresh
  /// segment after every one the scan found.
  Status Scan(const WalPosition& start, const WalFrameFn& fn,
              WalScanStats* stats);

  /// Applies one recovered frame to the core the way the live path applied
  /// it: records and samples through the ingestor, template registrations
  /// into the archive. Nothing is re-journaled. Repair events carry no core
  /// state; the caller keeps them.
  void Apply(const WalFrame& frame);

  /// Opens a writer on a fresh segment. On failure the journal stays a
  /// pass-through and the status says why.
  Status Open();
  /// Journals the core's whole catalog, sorted by id, so registrations made
  /// while no writer was open live in a segment this writer owns.
  /// Registration is idempotent on replay.
  void JournalCatalog();
  /// Flushes buffered records, fsyncs and closes the writer. A later Open()
  /// continues on the next segment.
  Status Close();

  /// Ingests through the core and buffers exactly the accepted records.
  size_t IngestRecords(std::span<const QueryLogRecord> records,
                       std::vector<QueryLogRecord>* accepted = nullptr);
  /// Ingests one sample; when the core accepts it, journals the buffered
  /// records and then the sample.
  bool IngestMetrics(const online::PerfSample& sample);
  /// Registers a template in the core's archive and journals it.
  void RegisterTemplate(uint64_t sql_id, const TemplateCatalogEntry& entry);
  /// Journals the buffered records now (checkpoint boundaries).
  Status Flush();
  /// Accepted records not yet journaled.
  size_t pending_records() const;

  /// The writer (closed after Close; nullptr before the first Open), for
  /// the owning service's control thread: checkpoint LSNs, segment
  /// retention, repair events and counters.
  WalWriter* writer() { return writer_.get(); }
  const WalWriter* writer() const { return writer_.get(); }

 private:
  Status FlushLocked();

  Env* env_;
  std::string dir_;
  WalOptions options_;
  online::InstanceCore* core_;

  mutable std::mutex mu_;
  std::unique_ptr<WalWriter> writer_;
  bool open_ = false;
  std::vector<QueryLogRecord> pending_;
  /// Sequence of the next segment a writer opens.
  uint64_t next_seq_ = 1;
};

}  // namespace pinsql::store

#endif  // PINSQL_STORE_INSTANCE_JOURNAL_H_
