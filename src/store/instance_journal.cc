#include "store/instance_journal.h"

#include <algorithm>
#include <utility>

namespace pinsql::store {

InstanceJournal::InstanceJournal(Env* env, std::string dir,
                                 const WalOptions& options,
                                 online::InstanceCore* core)
    : env_(env), dir_(std::move(dir)), options_(options), core_(core) {}

Status InstanceJournal::Scan(const WalPosition& start, const WalFrameFn& fn,
                             WalScanStats* stats) {
  env_->CreateDirs(dir_);
  Status status = ScanWal(env_, dir_, options_, start, fn, stats);
  next_seq_ = std::max(next_seq_,
                       std::max(stats->last_seq, start.segment_seq) + 1);
  return status;
}

void InstanceJournal::Apply(const WalFrame& frame) {
  switch (frame.kind) {
    case FrameKind::kRecordBatch:
      core_->ingestor().IngestRecords(frame.records);
      break;
    case FrameKind::kSample:
      core_->ingestor().IngestMetrics(frame.sample);
      break;
    case FrameKind::kTemplate:
      core_->archive()->RegisterTemplate(frame.template_id,
                                         frame.template_entry);
      break;
    case FrameKind::kRepairEvent:
      break;
  }
}

Status InstanceJournal::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_) return Status::OK();
  auto writer = WalWriter::Open(env_, dir_, options_, next_seq_);
  if (!writer.ok()) return writer.status();
  writer_ = std::move(writer).value();
  open_ = true;
  return Status::OK();
}

void InstanceJournal::JournalCatalog() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_) return;
  const auto& catalog = core_->archive()->catalog();
  std::vector<std::pair<uint64_t, const TemplateCatalogEntry*>> sorted;
  sorted.reserve(catalog.size());
  for (const auto& [sql_id, entry] : catalog) {
    sorted.emplace_back(sql_id, &entry);
  }
  std::sort(sorted.begin(), sorted.end());
  for (const auto& [sql_id, entry] : sorted) {
    writer_->AppendTemplate(sql_id, *entry);
  }
}

Status InstanceJournal::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_) return Status::OK();
  FlushLocked();
  next_seq_ = writer_->position().segment_seq + 1;
  open_ = false;
  return writer_->Close();
}

size_t InstanceJournal::IngestRecords(std::span<const QueryLogRecord> records,
                                      std::vector<QueryLogRecord>* accepted) {
  std::lock_guard<std::mutex> lock(mu_);
  // Buffer only while a writer exists to drain the buffer: without one it
  // would grow without bound.
  if (!open_) return core_->ingestor().IngestRecords(records, accepted);
  const size_t before = pending_.size();
  const size_t ok = core_->ingestor().IngestRecords(records, &pending_);
  if (accepted != nullptr) {
    accepted->insert(accepted->end(), pending_.begin() + before,
                     pending_.end());
  }
  return ok;
}

bool InstanceJournal::IngestMetrics(const online::PerfSample& sample) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!core_->ingestor().IngestMetrics(sample)) return false;
  if (open_) {
    FlushLocked();
    writer_->AppendSample(sample);
  }
  return true;
}

void InstanceJournal::RegisterTemplate(uint64_t sql_id,
                                       const TemplateCatalogEntry& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  core_->archive()->RegisterTemplate(sql_id, entry);
  if (open_) writer_->AppendTemplate(sql_id, entry);
}

Status InstanceJournal::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked();
}

Status InstanceJournal::FlushLocked() {
  if (!open_ || pending_.empty()) return Status::OK();
  Status status = writer_->AppendRecordBatch(pending_);
  // The batch is cleared even on a degraded append (fsync failure or a
  // retried torn write): the records already sit in the core, and
  // re-journaling them would duplicate them on replay. Hard losses are
  // counted in the writer stats, never silent.
  pending_.clear();
  return status;
}

size_t InstanceJournal::pending_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

}  // namespace pinsql::store
