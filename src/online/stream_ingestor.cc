#include "online/stream_ingestor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.h"

namespace pinsql::online {

namespace {

constexpr uint32_t kNoSlot = 0xFFFFFFFFu;
/// Below this many templates in a bucket, a linear scan over the
/// contiguous ids column beats hashing.
constexpr size_t kLinearSlots = 8;

inline size_t HashId(uint64_t id) {
  uint64_t h = id * 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(h ^ (h >> 29));
}

}  // namespace

size_t StreamIngestor::Bucket::FindOrAddSlot(uint64_t id) {
  const size_t n = ids.size();
  if (lookup.empty()) {
    for (size_t i = 0; i < n; ++i) {
      if (ids[i] == id) return i;
    }
  } else {
    const size_t mask = lookup.size() - 1;
    for (size_t p = HashId(id) & mask;; p = (p + 1) & mask) {
      const uint32_t slot = lookup[p];
      if (slot == kNoSlot) break;
      if (ids[slot] == id) return slot;
    }
  }
  ids.push_back(id);
  count.push_back(0.0);
  total_response_ms.push_back(0.0);
  examined_rows.push_back(0.0);
  if (ids.size() > kLinearSlots && ids.size() * 4 >= lookup.size()) {
    RebuildLookup();
  } else if (!lookup.empty()) {
    const size_t mask = lookup.size() - 1;
    size_t p = HashId(id) & mask;
    while (lookup[p] != kNoSlot) p = (p + 1) & mask;
    lookup[p] = static_cast<uint32_t>(n);
  }
  return n;
}

void StreamIngestor::Bucket::RebuildLookup() {
  size_t cap = 64;
  while (cap < ids.size() * 8) cap <<= 1;
  lookup.assign(cap, kNoSlot);
  const size_t mask = cap - 1;
  for (size_t i = 0; i < ids.size(); ++i) {
    size_t p = HashId(ids[i]) & mask;
    while (lookup[p] != kNoSlot) p = (p + 1) & mask;
    lookup[p] = static_cast<uint32_t>(i);
  }
}

void StreamIngestor::Bucket::ClearCells() {
  ids.clear();
  count.clear();
  total_response_ms.clear();
  examined_rows.clear();
  lookup.clear();
}

StreamIngestor::StreamIngestor(const IngestorOptions& options,
                               std::shared_ptr<IngestChunkPool> pool)
    : options_(options),
      pool_(pool != nullptr ? std::move(pool)
                            : std::make_shared<IngestChunkPool>()),
      metric_ring_(static_cast<size_t>(std::max<int64_t>(options.window_sec, 1))),
      watermark_(std::numeric_limits<int64_t>::min()) {
  options_.window_sec = std::max<int64_t>(options_.window_sec, 1);
  const size_t num_shards = std::max<size_t>(options_.num_shards, 1);
  if ((num_shards & (num_shards - 1)) == 0) {
    shard_mask_ = static_cast<uint64_t>(num_shards - 1);
  }
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->ring.resize(static_cast<size_t>(options_.window_sec));
    shards_.push_back(std::move(shard));
  }
}

StreamIngestor::~StreamIngestor() {
  // Staged chunks go back to the (possibly shared) pool, not down with us.
  for (auto& shard_ptr : shards_) {
    std::lock_guard<std::mutex> lock(shard_ptr->queue_mu);
    DropStagedLocked(shard_ptr.get());
  }
}

void StreamIngestor::DropStagedLocked(Shard* shard) {
  if (shard->head != nullptr) {
    pool_->ReleaseList(shard->head);
    shard->head = nullptr;
    shard->tail = nullptr;
    shard->staged = 0;
  }
}

bool StreamIngestor::StageLocked(Shard* shard, const QueryLogRecord& record) {
  ++shard->enqueued;
  if (shard->staged >= options_.shard_queue_capacity) {
    ++shard->dropped_backpressure;
    return false;
  }
  if (shard->tail == nullptr || shard->tail->full()) {
    IngestChunk* chunk = pool_->Acquire();
    if (shard->tail == nullptr) {
      shard->head = chunk;
    } else {
      shard->tail->next = chunk;
    }
    shard->tail = chunk;
  }
  shard->tail->push(record);
  ++shard->staged;
  return true;
}

bool StreamIngestor::IngestRecord(const QueryLogRecord& record) {
  return IngestRecords({&record, 1}) == 1;
}

size_t StreamIngestor::IngestRecords(std::span<const QueryLogRecord> records,
                                     std::vector<QueryLogRecord>* accepted) {
  const size_t n = records.size();
  if (n == 1) {
    Shard& shard = *shards_[ShardIndex(records[0].sql_id)];
    {
      std::lock_guard<std::mutex> lock(shard.queue_mu);
      if (!StageLocked(&shard, records[0])) return 0;
      NoteStagedLocked();
    }
    if (accepted != nullptr) accepted->push_back(records[0]);
    return 1;
  }
  if (n == 0) return 0;
  // Counting sort of the batch by shard (stable, so each shard sees its
  // records in batch order), then one queue_mu hold per touched shard.
  thread_local std::vector<uint32_t> shard_of;
  thread_local std::vector<uint32_t> begin;
  thread_local std::vector<uint32_t> order;
  thread_local std::vector<uint8_t> dropped;
  const size_t num_shards = shards_.size();
  shard_of.resize(n);
  begin.assign(num_shards + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    shard_of[i] = static_cast<uint32_t>(ShardIndex(records[i].sql_id));
    ++begin[shard_of[i] + 1];
  }
  for (size_t s = 0; s < num_shards; ++s) begin[s + 1] += begin[s];
  order.resize(n);
  for (size_t i = 0; i < n; ++i) {
    order[begin[shard_of[i]]++] = static_cast<uint32_t>(i);
  }
  // The fill above advanced each begin[s] to the end of shard s's run.
  if (accepted != nullptr) dropped.assign(n, 0);
  size_t ok = 0;
  size_t run_begin = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t run_end = begin[s];
    if (run_begin == run_end) continue;
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.queue_mu);
    size_t staged = 0;
    for (size_t j = run_begin; j < run_end; ++j) {
      if (StageLocked(&shard, records[order[j]])) {
        ++staged;
      } else if (accepted != nullptr) {
        dropped[order[j]] = 1;
      }
    }
    if (staged > 0) NoteStagedLocked();
    ok += staged;
    run_begin = run_end;
  }
  if (accepted != nullptr) {
    if (ok == n) {
      accepted->insert(accepted->end(), records.begin(), records.end());
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (!dropped[i]) accepted->push_back(records[i]);
      }
    }
  }
  return ok;
}

bool StreamIngestor::IngestMetrics(const PerfSample& sample) {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  const int64_t mark = watermark_.load(std::memory_order_relaxed);
  // Strict: a sample at exactly mark - window_sec + 1 (the window floor)
  // is the oldest retained instant; one second older misses the rings.
  if (mark != std::numeric_limits<int64_t>::min() &&
      sample.sec <= mark - options_.window_sec) {
    ++metric_samples_dropped_;
    return false;
  }
  MetricBucket& bucket = metric_ring_[RingIndex(sample.sec)];
  if (bucket.sec > sample.sec) {
    // The slot was already recycled for a newer second.
    ++metric_samples_dropped_;
    return false;
  }
  bucket.sec = sample.sec;
  bucket.sample = sample;
  ++metric_samples_;
  if (sample.sec > mark) {
    watermark_.store(sample.sec, std::memory_order_relaxed);
  }
  return true;
}

void StreamIngestor::FoldRecord(Shard* shard, const QueryLogRecord& record,
                                int64_t watermark, int64_t* cached_sec,
                                Bucket** cached_bucket) {
  const int64_t sec = record.arrival_ms / 1000;
  // Strictly older than the grace horizon: a record at exactly
  // watermark - late_grace_sec is still on time.
  if (watermark != std::numeric_limits<int64_t>::min() &&
      sec < watermark - options_.late_grace_sec) {
    ++shard->dropped_late;
    return;
  }
  Bucket* bucket;
  if (sec == *cached_sec && *cached_bucket != nullptr) {
    bucket = *cached_bucket;
  } else {
    bucket = &shard->ring[RingIndex(sec)];
    if (bucket->sec != sec) {
      if (bucket->sec > sec) {
        // Bucket already recycled for a newer second: the record is too
        // late.
        ++shard->dropped_late;
        return;
      }
      bucket->sec = sec;
      bucket->ClearCells();
    }
    *cached_sec = sec;
    *cached_bucket = bucket;
  }
  const size_t slot = bucket->FindOrAddSlot(record.sql_id);
  bucket->count[slot] += 1.0;
  bucket->total_response_ms[slot] += record.response_ms;
  bucket->examined_rows[slot] += static_cast<double>(record.examined_rows);
  ++shard->folded;
}

size_t StreamIngestor::Pump() {
  std::lock_guard<std::mutex> pump_lock(pump_mu_);
  if (!staged_since_pump_.exchange(false, std::memory_order_acq_rel)) return 0;
  // Everything one pump folds is archived in ONE AppendSpans call, chunk
  // spans in shard-index order (the same order the per-shard folds ran). A
  // concurrent LogStore::SnapshotRange therefore observes a pump
  // atomically — all of its records or none — which is also the granularity
  // the durable WAL journals (frame == batch). The chunks themselves only
  // return to the pool after the archive has copied them.
  std::vector<std::pair<const QueryLogRecord*, size_t>> spans;
  IngestChunk* release_head = nullptr;
  IngestChunk** release_tail = &release_head;
  IngestChunk* release_last = nullptr;
  size_t release_count = 0;
  size_t pumped = 0;
  const int64_t mark = watermark_.load(std::memory_order_relaxed);
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    IngestChunk* chunks = nullptr;
    {
      // fold_mu is held across the detach *and* the fold, so a record is
      // always visible to stats() as either staged (in the queue) or
      // folded/late — never in an invisible in-between (see the IngestStats
      // consistency contract).
      std::lock_guard<std::mutex> fold_lock(shard.fold_mu);
      {
        std::lock_guard<std::mutex> queue_lock(shard.queue_mu);
        chunks = shard.head;
        shard.head = nullptr;
        shard.tail = nullptr;
        shard.staged = 0;
      }
      if (chunks == nullptr) continue;
      int64_t cached_sec = kEmptySec;
      Bucket* cached_bucket = nullptr;
      for (const IngestChunk* c = chunks; c != nullptr; c = c->next) {
        for (uint32_t i = 0; i < c->size; ++i) {
          FoldRecord(&shard, c->items[i], mark, &cached_sec, &cached_bucket);
        }
      }
    }
    for (IngestChunk* c = chunks;; c = c->next) {
      spans.emplace_back(c->items, c->size);
      pumped += c->size;
      ++release_count;
      if (c->next == nullptr) {
        *release_tail = chunks;
        release_tail = &c->next;
        release_last = c;
        break;
      }
    }
  }
  if (archive_ != nullptr && !spans.empty()) archive_->AppendSpans(spans);
  if (release_head != nullptr) {
    // The span walk above already visited every chunk, so the pool can
    // splice the whole chain in O(1) without re-walking it under its lock.
    pool_->ReleaseChain(release_head, release_last, release_count);
  }
  PINSQL_OBS_COUNT("online.ingest_pumped", pumped);
  return pumped;
}

std::optional<int64_t> StreamIngestor::watermark_sec() const {
  const int64_t mark = watermark_.load(std::memory_order_relaxed);
  if (mark == std::numeric_limits<int64_t>::min()) return std::nullopt;
  return mark;
}

std::optional<PerfSample> StreamIngestor::SampleAt(int64_t sec) const {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  const MetricBucket& bucket = metric_ring_[RingIndex(sec)];
  if (bucket.sec != sec) return std::nullopt;
  return bucket.sample;
}

TemplateMetricsStore StreamIngestor::SnapshotTemplates(int64_t t0_sec,
                                                       int64_t t1_sec) const {
  TemplateMetricsStore store(t0_sec, t1_sec, /*interval_sec=*/1);
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.fold_mu);
    for (int64_t sec = t0_sec; sec < t1_sec; ++sec) {
      const Bucket& bucket = shard.ring[RingIndex(sec)];
      if (bucket.sec != sec) continue;
      for (size_t i = 0; i < bucket.ids.size(); ++i) {
        store.AccumulateCell(bucket.ids[i], sec, bucket.count[i],
                             bucket.total_response_ms[i],
                             bucket.examined_rows[i]);
      }
    }
  }
  return store;
}

WindowMetrics StreamIngestor::SnapshotMetrics(int64_t t0_sec,
                                              int64_t t1_sec) const {
  const size_t n = t1_sec > t0_sec ? static_cast<size_t>(t1_sec - t0_sec) : 0;
  const double gap = std::numeric_limits<double>::quiet_NaN();
  WindowMetrics out;
  out.active_session = TimeSeries(t0_sec, 1, n);
  TimeSeries cpu(t0_sec, 1, n), iops(t0_sec, 1, n), row_lock(t0_sec, 1, n),
      mdl(t0_sec, 1, n);
  std::lock_guard<std::mutex> lock(metrics_mu_);
  for (size_t i = 0; i < n; ++i) {
    const int64_t sec = t0_sec + static_cast<int64_t>(i);
    const MetricBucket& bucket = metric_ring_[RingIndex(sec)];
    if (bucket.sec == sec) {
      out.active_session[i] = bucket.sample.active_session;
      cpu[i] = bucket.sample.cpu_usage;
      iops[i] = bucket.sample.iops_usage;
      row_lock[i] = bucket.sample.row_lock_waits;
      mdl[i] = bucket.sample.mdl_waits;
    } else {
      out.active_session[i] = gap;
      cpu[i] = gap;
      iops[i] = gap;
      row_lock[i] = gap;
      mdl[i] = gap;
    }
  }
  out.helpers.emplace("cpu_usage", std::move(cpu));
  out.helpers.emplace("iops_usage", std::move(iops));
  out.helpers.emplace("row_lock_waits", std::move(row_lock));
  out.helpers.emplace("mdl_waits", std::move(mdl));
  return out;
}

std::optional<int64_t> StreamIngestor::window_floor_sec() const {
  const auto mark = watermark_sec();
  if (!mark.has_value()) return std::nullopt;
  return *mark - options_.window_sec + 1;
}

IngestorState StreamIngestor::ExportState() const {
  // Same consistent-cut locking discipline as stats(): every fold_mu, then
  // every queue_mu, then the metrics mutex.
  std::vector<std::unique_lock<std::mutex>> fold_locks;
  fold_locks.reserve(shards_.size());
  for (const auto& shard_ptr : shards_) {
    fold_locks.emplace_back(shard_ptr->fold_mu);
  }
  std::vector<std::unique_lock<std::mutex>> queue_locks;
  queue_locks.reserve(shards_.size());
  for (const auto& shard_ptr : shards_) {
    queue_locks.emplace_back(shard_ptr->queue_mu);
  }
  IngestorState state;
  state.shards.reserve(shards_.size());
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    IngestorShardState shard_state;
    shard_state.queue.reserve(shard.staged);
    for (const IngestChunk* c = shard.head; c != nullptr; c = c->next) {
      shard_state.queue.insert(shard_state.queue.end(), c->items,
                               c->items + c->size);
    }
    shard_state.enqueued = shard.enqueued;
    shard_state.dropped_backpressure = shard.dropped_backpressure;
    shard_state.folded = shard.folded;
    shard_state.dropped_late = shard.dropped_late;
    for (const Bucket& bucket : shard.ring) {
      if (bucket.sec == kEmptySec) continue;
      IngestorBucketState bucket_state;
      bucket_state.sec = bucket.sec;
      bucket_state.cells.reserve(bucket.ids.size());
      for (size_t i = 0; i < bucket.ids.size(); ++i) {
        bucket_state.cells.push_back({bucket.ids[i], bucket.count[i],
                                      bucket.total_response_ms[i],
                                      bucket.examined_rows[i]});
      }
      shard_state.buckets.push_back(std::move(bucket_state));
    }
    state.shards.push_back(std::move(shard_state));
  }
  queue_locks.clear();
  fold_locks.clear();
  std::lock_guard<std::mutex> lock(metrics_mu_);
  for (const MetricBucket& bucket : metric_ring_) {
    if (bucket.sec == kEmptySec) continue;
    state.metric_buckets.push_back({bucket.sec, bucket.sample});
  }
  state.metric_samples = metric_samples_;
  state.metric_samples_dropped = metric_samples_dropped_;
  state.watermark = watermark_.load(std::memory_order_relaxed);
  return state;
}

Status StreamIngestor::ImportState(const IngestorState& state) {
  if (state.shards.size() != shards_.size()) {
    return Status::InvalidArgument(
        "ingestor state has " + std::to_string(state.shards.size()) +
        " shards, ingestor has " + std::to_string(shards_.size()));
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    const IngestorShardState& shard_state = state.shards[i];
    {
      std::lock_guard<std::mutex> lock(shard.queue_mu);
      DropStagedLocked(&shard);
      for (const QueryLogRecord& record : shard_state.queue) {
        if (shard.tail == nullptr || shard.tail->full()) {
          IngestChunk* chunk = pool_->Acquire();
          if (shard.tail == nullptr) {
            shard.head = chunk;
          } else {
            shard.tail->next = chunk;
          }
          shard.tail = chunk;
        }
        shard.tail->push(record);
        ++shard.staged;
      }
      if (shard.staged > 0) NoteStagedLocked();
    }
    shard.enqueued = static_cast<size_t>(shard_state.enqueued);
    shard.dropped_backpressure =
        static_cast<size_t>(shard_state.dropped_backpressure);
    shard.folded = static_cast<size_t>(shard_state.folded);
    shard.dropped_late = static_cast<size_t>(shard_state.dropped_late);
    for (Bucket& bucket : shard.ring) {
      bucket.sec = kEmptySec;
      bucket.ClearCells();
    }
    for (const IngestorBucketState& bucket_state : shard_state.buckets) {
      if (bucket_state.sec == kEmptySec) {
        return Status::InvalidArgument("ingestor bucket with sentinel sec");
      }
      Bucket& bucket = shard.ring[RingIndex(bucket_state.sec)];
      bucket.sec = bucket_state.sec;
      bucket.ClearCells();
      for (const IngestorCellState& cell : bucket_state.cells) {
        const size_t slot = bucket.FindOrAddSlot(cell.sql_id);
        bucket.count[slot] = cell.count;
        bucket.total_response_ms[slot] = cell.total_response_ms;
        bucket.examined_rows[slot] = cell.examined_rows;
      }
    }
  }
  std::lock_guard<std::mutex> lock(metrics_mu_);
  for (MetricBucket& bucket : metric_ring_) bucket.sec = kEmptySec;
  for (const IngestorMetricBucketState& bucket_state : state.metric_buckets) {
    if (bucket_state.sec == kEmptySec) {
      return Status::InvalidArgument("metric bucket with sentinel sec");
    }
    MetricBucket& bucket = metric_ring_[RingIndex(bucket_state.sec)];
    bucket.sec = bucket_state.sec;
    bucket.sample = bucket_state.sample;
  }
  metric_samples_ = static_cast<size_t>(state.metric_samples);
  metric_samples_dropped_ = static_cast<size_t>(state.metric_samples_dropped);
  watermark_.store(state.watermark, std::memory_order_relaxed);
  return Status::OK();
}

IngestStats StreamIngestor::stats() const {
  // Consistent cut: hold every shard's fold_mu, then every queue_mu, and
  // only then read. With all locks held no record can move between the
  // staged / folded / dropped states, so the totals satisfy
  // enqueued == folded + dropped_late + dropped_backpressure + staged
  // exactly — a fleet summing per-instance snapshots never sees a torn
  // read. Lock order (fold before queue, shards in index order) matches
  // Pump(), so this cannot deadlock.
  std::vector<std::unique_lock<std::mutex>> fold_locks;
  fold_locks.reserve(shards_.size());
  for (const auto& shard_ptr : shards_) {
    fold_locks.emplace_back(shard_ptr->fold_mu);
  }
  std::vector<std::unique_lock<std::mutex>> queue_locks;
  queue_locks.reserve(shards_.size());
  for (const auto& shard_ptr : shards_) {
    queue_locks.emplace_back(shard_ptr->queue_mu);
  }
  IngestStats stats;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    stats.records_enqueued += shard.enqueued;
    stats.records_dropped_backpressure += shard.dropped_backpressure;
    stats.records_folded += shard.folded;
    stats.records_dropped_late += shard.dropped_late;
    stats.records_staged += shard.staged;
  }
  queue_locks.clear();
  fold_locks.clear();
  std::lock_guard<std::mutex> lock(metrics_mu_);
  stats.metric_samples = metric_samples_;
  stats.metric_samples_dropped = metric_samples_dropped_;
  return stats;
}

}  // namespace pinsql::online
