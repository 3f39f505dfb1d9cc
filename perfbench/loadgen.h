#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// Load generation over loopback HTTP/1.1 keep-alive connections: an
// open-loop sender pool that fires each batch at its scheduled time, a
// closed-loop saturation pool, and a report reader on a fixed cadence.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <set>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "bookkeeping.h"
#include "traffic.h"

namespace perfbench {

/// Milliseconds on the benchmark's steady clock.
double NowMs();

/// One blocking keep-alive client connection.
class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(uint16_t port);
  /// Sends a request and reads its response; returns the status code (0 on
  /// a transport error, after which the connection is closed).
  int RoundTrip(std::string_view request, std::string* body = nullptr);

 private:
  void Close();
  int fd_ = -1;
  uint16_t port_ = 0;
  std::string in_;
};

/// What happened to one batch on the wire.
struct SendRecord {
  double scheduled_ms = 0.0;
  double sent_ms = 0.0;
  double acked_ms = 0.0;
  int status = 0;
};

/// Sends traffic.batches open loop: batch k is due at
/// start_ms + due_offset_ms[k]. Instances are partitioned over
/// `senders` connections so each instance's batches stay in order; a
/// sender that falls behind sends late, and the lateness shows in the
/// acknowledgement latency, which is timed from the scheduled send.
void RunOpenLoop(uint16_t port, const Traffic& traffic,
                 const std::vector<double>& due_offset_ms, double start_ms,
                 int senders, std::vector<SendRecord>* records);

/// Sends traffic.batches closed loop (each connection sends its next batch
/// when the previous one is acknowledged) until they are exhausted or
/// `deadline_ms` passes. Returns how many batches were sent; their outcomes
/// land in `records`.
size_t RunClosedLoop(uint16_t port, const Traffic& traffic, double deadline_ms,
                     int senders, std::vector<SendRecord>* records);

/// Polls GET /v1/reports on a fixed cadence from its own connection,
/// timing every read and recording when each report is first listed.
/// Between polls it samples `delivered()` (records delivered into the
/// fleet) when tracing, so delivery lag can be attributed per batch.
class ReportReader {
 public:
  struct Read {
    double start_ms = 0.0;
    double ms = 0.0;
    int status = 0;
    bool during_ingest = false;
  };
  struct DeliverySample {
    double ms = 0.0;
    uint64_t delivered = 0;
  };

  ReportReader(double poll_ms, bool trace,
               std::function<uint64_t()> delivered);
  ~ReportReader();
  ReportReader(const ReportReader&) = delete;
  ReportReader& operator=(const ReportReader&) = delete;

  void Start(uint16_t port);
  /// Stops the polling thread; what it recorded stays readable.
  void Stop();
  void set_ingest_running(bool running) { ingest_running_.store(running); }

  const std::vector<Read>& reads() const { return reads_; }
  const std::vector<ReportSighting>& sightings() const { return sightings_; }
  const std::vector<DeliverySample>& delivery() const { return delivery_; }

  /// One synchronous poll (used for the final listing after ingest).
  bool PollOnce(uint16_t port, std::string* body);

 private:
  void Loop(uint16_t port);
  void Record(const std::string& body, double seen_ms);

  double poll_ms_;
  bool trace_;
  std::function<uint64_t()> delivered_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> ingest_running_{false};
  std::vector<Read> reads_;
  std::vector<ReportSighting> sightings_;
  std::vector<DeliverySample> delivery_;
  std::set<std::tuple<uint32_t, int64_t, int64_t>> seen_keys_;
  std::thread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
