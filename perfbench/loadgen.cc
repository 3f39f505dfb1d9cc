#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "util/json.h"

namespace perfbench {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Timed wake-ups of this thread within ~1 us instead of the default 50 us
/// timer slack, so a scheduled send leaves when it is due.
void TightenTimerSlack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

void SleepUntilMs(double target_ms) {
  const double now = NowMs();
  if (target_ms <= now) return;
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(target_ms - now));
}

std::string ReportsRequest(int limit) {
  return "GET /v1/reports?limit=" + std::to_string(limit) +
         " HTTP/1.1\r\nHost: localhost\r\nX-Pinsql-Tenant: " + kTenant +
         "\r\n\r\n";
}

}  // namespace

Conn::~Conn() { Close(); }

void Conn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  in_.clear();
}

bool Conn::Connect(uint16_t port) {
  Close();
  port_ = port;
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

int Conn::RoundTrip(std::string_view request, std::string* body) {
  if (fd_ < 0 && !Connect(port_)) return 0;
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + off, request.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return 0;
    }
    off += static_cast<size_t>(n);
  }
  // Read until one full response (status line, headers, Content-Length
  // body) is buffered.
  size_t header_end = std::string::npos;
  size_t content_length = 0;
  char chunk[16384];
  while (true) {
    if (header_end == std::string::npos) {
      header_end = in_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        const size_t cl = in_.find("Content-Length: ");
        if (cl != std::string::npos && cl < header_end) {
          content_length = std::strtoull(in_.c_str() + cl + 16, nullptr, 10);
        }
      }
    }
    if (header_end != std::string::npos &&
        in_.size() >= header_end + 4 + content_length) {
      break;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return 0;
    }
    in_.append(chunk, static_cast<size_t>(n));
  }
  const int status =
      in_.size() >= 12 && in_.compare(0, 5, "HTTP/") == 0
          ? std::atoi(in_.c_str() + 9)
          : 0;
  const bool close_after =
      in_.find("Connection: close") < header_end;
  if (body != nullptr) body->assign(in_, header_end + 4, content_length);
  in_.erase(0, header_end + 4 + content_length);
  if (close_after) Close();
  return status;
}

void RunOpenLoop(uint16_t port, const Traffic& traffic,
                 const std::vector<double>& due_offset_ms, double start_ms,
                 int senders, std::vector<SendRecord>* records) {
  records->assign(traffic.batches.size(), SendRecord{});
  std::vector<std::thread> threads;
  for (int s = 0; s < senders; ++s) {
    threads.emplace_back([&, s] {
      TightenTimerSlack();
      Conn conn;
      conn.Connect(port);
      for (size_t k = 0; k < traffic.batches.size(); ++k) {
        const Batch& batch = traffic.batches[k];
        if (static_cast<int>(batch.instance % senders) != s) continue;
        SendRecord& rec = (*records)[k];
        rec.scheduled_ms = start_ms + due_offset_ms[k];
        SleepUntilMs(rec.scheduled_ms);
        rec.sent_ms = NowMs();
        rec.status = conn.RoundTrip(batch.wire);
        rec.acked_ms = NowMs();
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

size_t RunClosedLoop(uint16_t port, const Traffic& traffic, double deadline_ms,
                     int senders, std::vector<SendRecord>* records) {
  records->assign(traffic.batches.size(), SendRecord{});
  std::atomic<size_t> sent{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < senders; ++s) {
    threads.emplace_back([&, s] {
      Conn conn;
      conn.Connect(port);
      for (size_t k = 0; k < traffic.batches.size(); ++k) {
        const Batch& batch = traffic.batches[k];
        if (static_cast<int>(batch.instance % senders) != s) continue;
        if (NowMs() >= deadline_ms) break;
        SendRecord& rec = (*records)[k];
        rec.scheduled_ms = rec.sent_ms = NowMs();
        rec.status = conn.RoundTrip(batch.wire);
        rec.acked_ms = NowMs();
        sent.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return sent.load();
}

ReportReader::ReportReader(double poll_ms, bool trace,
                           std::function<uint64_t()> delivered)
    : poll_ms_(poll_ms), trace_(trace), delivered_(std::move(delivered)) {}

ReportReader::~ReportReader() { Stop(); }

void ReportReader::Start(uint16_t port) {
  Stop();
  stop_.store(false);
  thread_ = std::thread([this, port] { Loop(port); });
}

void ReportReader::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void ReportReader::Record(const std::string& body, double seen_ms) {
  auto parsed = pinsql::Json::Parse(body);
  if (!parsed.ok()) return;
  const pinsql::Json* reports = parsed.value().Find("reports");
  if (reports == nullptr || !reports->is_array()) return;
  for (const pinsql::Json& entry : reports->AsArray()) {
    const pinsql::Json* instance = entry.Find("instance");
    const pinsql::Json* onset = entry.Find("onset_sec");
    const pinsql::Json* trigger = entry.Find("trigger_sec");
    if (instance == nullptr || onset == nullptr || trigger == nullptr) continue;
    ReportSighting s;
    s.instance = static_cast<uint32_t>(instance->AsNumber());
    s.onset_sec = static_cast<int64_t>(onset->AsNumber());
    s.trigger_sec = static_cast<int64_t>(trigger->AsNumber());
    s.seen_ms = seen_ms;
    if (seen_keys_.emplace(s.instance, s.onset_sec, s.trigger_sec).second) {
      sightings_.push_back(s);
    }
  }
}

bool ReportReader::PollOnce(uint16_t port, std::string* body) {
  Conn conn;
  if (!conn.Connect(port)) return false;
  const int status = conn.RoundTrip(ReportsRequest(1000), body);
  if (status == 200) Record(*body, NowMs());
  return status == 200;
}

void ReportReader::Loop(uint16_t port) {
  TightenTimerSlack();
  Conn conn;
  conn.Connect(port);
  // Newest first: a short listing is enough to spot new reports at this
  // cadence, and PollOnce takes the complete listing at the end.
  const std::string request = ReportsRequest(5);
  std::string body;
  double next_poll = NowMs();
  while (!stop_.load()) {
    if (trace_) {
      // Sample the delivery counter at ~1 ms resolution between polls.
      while (NowMs() < next_poll && !stop_.load()) {
        const uint64_t d = delivered_();
        if (delivery_.empty() || delivery_.back().delivered != d) {
          delivery_.push_back({NowMs(), d});
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } else {
      SleepUntilMs(next_poll);
    }
    if (stop_.load()) break;
    next_poll += poll_ms_;
    Read read;
    read.during_ingest = ingest_running_.load();
    read.start_ms = NowMs();
    read.status = conn.RoundTrip(request, &body);
    const double done = NowMs();
    read.ms = done - read.start_ms;
    reads_.push_back(read);
    if (read.status == 200) Record(body, done);
    // A slow read must not make the cadence burst to catch up.
    if (next_poll < done) next_poll = done;
  }
}

}  // namespace perfbench
