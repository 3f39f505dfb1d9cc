#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet_service.h"
#include "online/replay.h"
#include "serve/server.h"
#include "util/json.h"
#include "util/strings.h"

namespace pinsql::serve {
namespace {

// --- Minimal blocking HTTP client ----------------------------------------

struct ClientResponse {
  int status = 0;
  std::string headers;
  std::string body;
  bool ok = false;
};

int ConnectTo(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Reads one HTTP/1.1 response (Content-Length framing) off `fd`.
/// `carry` holds bytes read past the response (pipelined replies), so
/// calling again with the same carry parses the next response.
ClientResponse ReadResponse(int fd, std::string* carry = nullptr) {
  ClientResponse response;
  std::string local;
  std::string& buffer = carry != nullptr ? *carry : local;
  char chunk[4096];
  size_t header_end;
  while ((header_end = buffer.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return response;
    }
    buffer.append(chunk, static_cast<size_t>(n));
    if (buffer.size() > 1 << 20) return response;
  }
  response.headers = buffer.substr(0, header_end);
  response.status = std::atoi(response.headers.c_str() + 9);
  size_t content_length = 0;
  const size_t cl = response.headers.find("Content-Length: ");
  if (cl != std::string::npos) {
    content_length = static_cast<size_t>(
        std::atoll(response.headers.c_str() + cl + 16));
  }
  buffer.erase(0, header_end + 4);
  while (buffer.size() < content_length) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return response;
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }
  response.body = buffer.substr(0, content_length);
  buffer.erase(0, content_length);
  response.ok = true;
  return response;
}

ClientResponse Request(uint16_t port, const std::string& method,
                       const std::string& target, const std::string& tenant,
                       const std::string& body = "") {
  const int fd = ConnectTo(port);
  ClientResponse response;
  if (fd < 0) return response;
  std::string wire = method + " " + target + " HTTP/1.1\r\n";
  if (!tenant.empty()) wire += "X-Pinsql-Tenant: " + tenant + "\r\n";
  if (!body.empty()) {
    wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  wire += "Connection: close\r\n\r\n" + body;
  if (SendAll(fd, wire)) response = ReadResponse(fd);
  ::close(fd);
  return response;
}

// --- Synthetic incident (same shape as the online replay tests) ----------

online::PerfSample Sample(int64_t sec, double session) {
  online::PerfSample s;
  s.sec = sec;
  s.active_session = session;
  s.cpu_usage = session * 0.05;
  s.iops_usage = session * 0.1;
  return s;
}

online::ReplayLog SyntheticIncident() {
  online::ReplayLog log;
  const int64_t t0 = 100'000;
  const int64_t onset = t0 + 200;
  const int64_t t1 = onset + 120;
  for (int64_t sec = t0; sec < t1; ++sec) {
    const bool anomalous = sec >= onset;
    log.samples.push_back(Sample(sec, anomalous ? 380.0 : 4.0));
    uint64_t state = static_cast<uint64_t>(sec) * 2654435761ULL + 17;
    const int base = 6;
    const int extra = anomalous ? 40 : 0;
    for (int i = 0; i < base + extra; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      QueryLogRecord r;
      r.sql_id = i < base ? 1 + (state >> 33) % 4 : 9;
      r.arrival_ms = sec * 1000 + static_cast<int64_t>((state >> 13) % 1000);
      r.response_ms = i < base ? 2.0 : 450.0;
      r.examined_rows = i < base ? 20 : 500'000;
      log.records.push_back(r);
    }
  }
  return log;
}

void RegisterCatalog(fleet::FleetService* fleet) {
  for (uint64_t id = 1; id <= 4; ++id) {
    TemplateCatalogEntry entry;
    entry.template_text = "SELECT * FROM t WHERE k = ?";
    entry.kind = sqltpl::StatementKind::kSelect;
    entry.tables = {"t"};
    fleet->RegisterTemplateFleetWide(id, entry);
  }
  TemplateCatalogEntry heavy;
  heavy.template_text = "SELECT * FROM big ORDER BY v";
  heavy.kind = sqltpl::StatementKind::kSelect;
  heavy.tables = {"big"};
  fleet->RegisterTemplateFleetWide(9, heavy);
}

LogStore CatalogStore() {
  LogStore catalog;
  for (uint64_t id = 1; id <= 4; ++id) {
    TemplateCatalogEntry entry;
    entry.template_text = "SELECT * FROM t WHERE k = ?";
    entry.kind = sqltpl::StatementKind::kSelect;
    entry.tables = {"t"};
    catalog.RegisterTemplate(id, entry);
  }
  TemplateCatalogEntry heavy;
  heavy.template_text = "SELECT * FROM big ORDER BY v";
  heavy.kind = sqltpl::StatementKind::kSelect;
  heavy.tables = {"big"};
  catalog.RegisterTemplate(9, heavy);
  return catalog;
}

/// `hex_ids` sends every sql_id in the hex-string form /v1/reports emits.
std::string BatchBody(uint32_t instance,
                      const std::vector<QueryLogRecord>& records,
                      const std::vector<online::PerfSample>& samples,
                      bool hex_ids = false) {
  Json root = Json::MakeObject();
  root.Set("instance", static_cast<int64_t>(instance));
  Json recs = Json::MakeArray();
  for (const auto& r : records) {
    Json item = Json::MakeObject();
    item.Set("arrival_ms", r.arrival_ms);
    if (hex_ids) {
      item.Set("sql_id", HashToHex(r.sql_id));
    } else {
      item.Set("sql_id", static_cast<int64_t>(r.sql_id));
    }
    item.Set("response_ms", r.response_ms);
    item.Set("examined_rows", r.examined_rows);
    recs.Append(std::move(item));
  }
  root.Set("records", std::move(recs));
  Json samps = Json::MakeArray();
  for (const auto& s : samples) {
    Json item = Json::MakeObject();
    item.Set("sec", s.sec);
    item.Set("active_session", s.active_session);
    item.Set("cpu_usage", s.cpu_usage);
    item.Set("iops_usage", s.iops_usage);
    item.Set("row_lock_waits", s.row_lock_waits);
    item.Set("mdl_waits", s.mdl_waits);
    samps.Append(std::move(item));
  }
  root.Set("samples", std::move(samps));
  return root.Dump();
}

struct Stack {
  std::unique_ptr<fleet::FleetService> fleet;
  std::unique_ptr<Server> server;

  Stack() = default;
  Stack(Stack&&) = default;
  Stack& operator=(Stack&&) = default;
  ~Stack() {
    if (server) server->Stop();
    if (fleet) fleet->Stop();
  }
};

Stack MakeStack(ServerOptions soptions = {},
                std::vector<fleet::FleetInstanceSpec> specs = {{1, 0}}) {
  Stack stack;
  fleet::FleetOptions foptions;
  stack.fleet =
      std::make_unique<fleet::FleetService>(specs, foptions);
  RegisterCatalog(stack.fleet.get());
  stack.fleet->Start();
  if (soptions.admission.tenants.empty()) {
    TenantQuota quota;
    quota.records_per_sec = 1e9;
    quota.record_burst = 1e9;
    quota.bytes_per_sec = 1e12;
    quota.byte_burst = 1e12;
    quota.queue_capacity_batches = 100'000;
    for (const auto& spec : specs) quota.instances.push_back(spec.instance_id);
    soptions.admission.tenants["acme"] = quota;
  }
  stack.server = std::make_unique<Server>(stack.fleet.get(), soptions);
  return stack;
}

/// A tenant "acme" request for HandleRequest (no socket).
HttpRequest AcmeRequest(std::string method, std::string target,
                        std::string body = "") {
  HttpRequest r;
  r.method = std::move(method);
  r.target = std::move(target);
  r.version = "HTTP/1.1";
  r.headers.emplace_back("X-Pinsql-Tenant", "acme");
  r.content_length = body.size();
  r.body = std::move(body);
  return r;
}

/// Stages one ingest body through the handler path and waits until the
/// pump delivered it, so each delivery round carries exactly one batch.
/// `sent` counts the batches staged so far.
void IngestOneRound(Server* server, std::string body, uint64_t* sent) {
  const HttpResponse response = server->HandleRequest(
      AcmeRequest("POST", "/v1/ingest", std::move(body)), Server::NowMs());
  ASSERT_EQ(response.status, 202) << response.body;
  ++*sent;
  for (int attempt = 0; attempt < 5000; ++attempt) {
    if (server->stats().batches_delivered == *sent) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "batch " << *sent << " was not delivered";
}

// --- Tests ---------------------------------------------------------------

TEST(ServeServerTest, HealthAndMetricsEndpoints) {
  Stack stack = MakeStack();
  ASSERT_TRUE(stack.server->Start().ok());
  const uint16_t port = stack.server->port();
  ASSERT_GT(port, 0);

  const ClientResponse health = Request(port, "GET", "/v1/healthz", "");
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos);

  const ClientResponse metrics = Request(port, "GET", "/v1/metricsz", "");
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.status, 200);
  // The unified drop ledger is present with both layers.
  auto parsed = Json::Parse(metrics.body);
  ASSERT_TRUE(parsed.ok()) << metrics.body.substr(0, 200);
  const Json* drops = parsed.value().Find("drops");
  ASSERT_NE(drops, nullptr);
  EXPECT_NE(drops->Find("admission"), nullptr);
  EXPECT_NE(drops->Find("ingest"), nullptr);
  EXPECT_NE(parsed.value().Find("admission"), nullptr);
  EXPECT_NE(parsed.value().Find("server"), nullptr);

  const ClientResponse missing = Request(port, "GET", "/v1/nope", "");
  EXPECT_EQ(missing.status, 404);
}

TEST(ServeServerTest, TenantAuthIsEnforcedOverTheWire) {
  Stack stack = MakeStack();
  ASSERT_TRUE(stack.server->Start().ok());
  const uint16_t port = stack.server->port();

  // No tenant header → 403 at pre-admission, before the body is read.
  ClientResponse response =
      Request(port, "POST", "/v1/ingest", "", "{\"instance\":1}");
  EXPECT_EQ(response.status, 403);
  response = Request(port, "POST", "/v1/ingest", "mallory",
                     "{\"instance\":1}");
  EXPECT_EQ(response.status, 403);
  response = Request(port, "GET", "/v1/reports", "mallory");
  EXPECT_EQ(response.status, 403);
  // Authorized tenant, forbidden instance.
  response = Request(port, "POST", "/v1/ingest", "acme",
                     "{\"instance\":42,\"records\":[]}");
  EXPECT_EQ(response.status, 403);
}

TEST(ServeServerTest, RateLimitAnswers429WithRetryAfter) {
  ServerOptions soptions;
  TenantQuota tight;
  tight.records_per_sec = 10.0;
  tight.record_burst = 10.0;
  tight.bytes_per_sec = 1e9;
  tight.byte_burst = 1e9;
  tight.instances = {1};
  soptions.admission.tenants["acme"] = tight;
  Stack stack = MakeStack(soptions);
  ASSERT_TRUE(stack.server->Start().ok());
  const uint16_t port = stack.server->port();

  std::vector<QueryLogRecord> records(10);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].arrival_ms = 1'000'000 + static_cast<int64_t>(i);
    records[i].sql_id = 1;
    records[i].response_ms = 1.0;
    records[i].examined_rows = 1;
  }
  const std::string body = BatchBody(1, records, {});
  const ClientResponse first =
      Request(port, "POST", "/v1/ingest", "acme", body);
  EXPECT_EQ(first.status, 202);
  const ClientResponse second =
      Request(port, "POST", "/v1/ingest", "acme", body);
  EXPECT_EQ(second.status, 429);
  EXPECT_NE(second.headers.find("Retry-After:"), std::string::npos);
  const auto tenant_stats = stack.server->tenant_stats().at("acme");
  EXPECT_EQ(tenant_stats.dropped_rate_limited, 1u);
}

TEST(ServeServerTest, KeepAlivePipeliningServesSequentialRequests) {
  Stack stack = MakeStack();
  ASSERT_TRUE(stack.server->Start().ok());
  const int fd = ConnectTo(stack.server->port());
  ASSERT_GE(fd, 0);
  // Two pipelined GETs on one connection.
  ASSERT_TRUE(SendAll(fd,
                      "GET /v1/healthz HTTP/1.1\r\n\r\n"
                      "GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n"));
  std::string carry;
  const ClientResponse first = ReadResponse(fd, &carry);
  EXPECT_EQ(first.status, 200);
  EXPECT_NE(first.headers.find("Connection: keep-alive"), std::string::npos);
  const ClientResponse second = ReadResponse(fd, &carry);
  EXPECT_EQ(second.status, 200);
  EXPECT_NE(second.headers.find("Connection: close"), std::string::npos);
  ::close(fd);
}

TEST(ServeServerTest, PartialFlushDoesNotReplayOrDuplicateResponses) {
  ServerOptions soptions;
  soptions.socket_send_buffer_bytes = 2048;  // force partial flushes
  Stack stack = MakeStack(soptions);
  ASSERT_TRUE(stack.server->Start().ok());
  const uint16_t port = stack.server->port();

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 2048;  // tiny receive window: responses cannot drain
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // Pipeline large responses (metricsz) ahead of distinguishable small
  // ones. The server hits EAGAIN mid-response and must resume via POLLOUT
  // without re-processing an already-answered request — a stuck parser
  // here used to replay request 1 forever and the 404 would never arrive.
  std::string wire;
  constexpr int kBig = 16;
  for (int i = 0; i < kBig; ++i) {
    wire += "GET /v1/metricsz HTTP/1.1\r\n\r\n";
  }
  wire += "GET /v1/nope HTTP/1.1\r\n\r\n";
  wire += "GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
  ASSERT_TRUE(SendAll(fd, wire));
  // Give the server time to attempt (and partially fail) the flushes
  // before we start draining.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  std::string carry;
  for (int i = 0; i < kBig; ++i) {
    const ClientResponse response = ReadResponse(fd, &carry);
    ASSERT_TRUE(response.ok) << "response " << i;
    EXPECT_EQ(response.status, 200) << "response " << i;
  }
  const ClientResponse not_found = ReadResponse(fd, &carry);
  ASSERT_TRUE(not_found.ok);
  EXPECT_EQ(not_found.status, 404);
  const ClientResponse last = ReadResponse(fd, &carry);
  ASSERT_TRUE(last.ok);
  EXPECT_EQ(last.status, 200);
  EXPECT_NE(last.headers.find("Connection: close"), std::string::npos);
  ::close(fd);

  const ServerStats stats = stack.server->stats();
  EXPECT_EQ(stats.requests_received, static_cast<uint64_t>(kBig) + 2);
  EXPECT_EQ(stats.responses_sent, static_cast<uint64_t>(kBig) + 2);
}

TEST(ServeServerTest, PipelinedRequestSpanningMultipleReadsIsNotLost) {
  Stack stack = MakeStack();
  ASSERT_TRUE(stack.server->Start().ok());
  const int fd = ConnectTo(stack.server->port());
  ASSERT_GE(fd, 0);

  // A tiny GET followed, in the same burst, by an ingest POST whose body
  // exceeds the server's 16 KiB read chunk: the POST's bytes span several
  // recv() calls after the GET already completed, and must wait in the
  // kernel buffer — not be fed into (and discarded by) a complete parser.
  std::vector<QueryLogRecord> records(400);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].arrival_ms = 700'000'000 + static_cast<int64_t>(i);
    records[i].sql_id = 1 + i % 4;
    records[i].response_ms = 2.0;
    records[i].examined_rows = 10;
  }
  const std::string body = BatchBody(1, records, {});
  ASSERT_GT(body.size(), 16u * 1024);
  std::string wire = "GET /v1/healthz HTTP/1.1\r\n\r\n";
  wire +=
      "POST /v1/ingest HTTP/1.1\r\nX-Pinsql-Tenant: acme\r\n"
      "Content-Length: " +
      std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
  ASSERT_TRUE(SendAll(fd, wire));

  std::string carry;
  const ClientResponse first = ReadResponse(fd, &carry);
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.status, 200);
  const ClientResponse second = ReadResponse(fd, &carry);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.status, 202);
  ::close(fd);
}

TEST(ServeServerTest, MalformedRequestsGetCleanErrors) {
  Stack stack = MakeStack();
  ASSERT_TRUE(stack.server->Start().ok());
  const uint16_t port = stack.server->port();

  const int fd = ConnectTo(port);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "NOT-HTTP garbage\r\n\r\n"));
  const ClientResponse garbage = ReadResponse(fd);
  EXPECT_EQ(garbage.status, 400);
  ::close(fd);

  const int fd2 = ConnectTo(port);
  ASSERT_GE(fd2, 0);
  ASSERT_TRUE(SendAll(fd2, "GET / HTTP/3.0\r\n\r\n"));
  EXPECT_EQ(ReadResponse(fd2).status, 505);
  ::close(fd2);

  EXPECT_GE(stack.server->stats().parse_errors, 2u);
}

TEST(ServeServerTest, EndToEndIncidentDiagnosisAndReplayFingerprint) {
  ServerOptions soptions;
  soptions.capture_accepted = true;
  Stack stack = MakeStack(soptions);
  ASSERT_TRUE(stack.server->Start().ok());
  const uint16_t port = stack.server->port();

  // Stream the incident second by second: each request carries one
  // second's records plus its sample, like a per-second agent flush.
  const online::ReplayLog incident = SyntheticIncident();
  size_t cursor = 0;
  for (const online::PerfSample& sample : incident.samples) {
    std::vector<QueryLogRecord> second_records;
    const int64_t end_ms = (sample.sec + 1) * 1000;
    while (cursor < incident.records.size() &&
           incident.records[cursor].arrival_ms < end_ms) {
      second_records.push_back(incident.records[cursor]);
      ++cursor;
    }
    const ClientResponse response =
        Request(port, "POST", "/v1/ingest", "acme",
                BatchBody(1, second_records, {sample}));
    ASSERT_EQ(response.status, 202) << "sec " << sample.sec;
  }

  // The pump delivers asynchronously; poll /v1/reports for the diagnosis.
  bool got_report = false;
  Json report;
  for (int attempt = 0; attempt < 200 && !got_report; ++attempt) {
    const ClientResponse response =
        Request(port, "GET", "/v1/reports?limit=10", "acme");
    ASSERT_TRUE(response.ok);
    ASSERT_EQ(response.status, 200);
    auto parsed = Json::Parse(response.body);
    ASSERT_TRUE(parsed.ok());
    const Json* reports = parsed.value().Find("reports");
    ASSERT_NE(reports, nullptr);
    if (!reports->AsArray().empty()) {
      report = reports->AsArray().front();
      got_report = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_TRUE(got_report) << "no diagnosis surfaced via /v1/reports";
  EXPECT_EQ(report.GetNumberOr("instance", -1), 1.0);
  EXPECT_TRUE(report.GetBoolOr("ok", false));
  const Json* inner = report.Find("report");
  ASSERT_NE(inner, nullptr);
  // The root-cause ranking pinpoints the flooding template (sql_id 9).
  const std::string dumped = inner->Dump();
  EXPECT_NE(dumped.find("9"), std::string::npos);

  // Triggers endpoint sees the same trigger, tenant-scoped.
  const ClientResponse triggers = Request(port, "GET", "/v1/triggers", "acme");
  ASSERT_EQ(triggers.status, 200);
  auto tparsed = Json::Parse(triggers.body);
  ASSERT_TRUE(tparsed.ok());
  EXPECT_FALSE(tparsed.value().Find("triggers")->AsArray().empty());

  // Triggers/repairs honor the same limit parameter as reports, so their
  // responses stay bounded no matter how much history is cached.
  const ClientResponse limited =
      Request(port, "GET", "/v1/triggers?limit=1", "acme");
  ASSERT_EQ(limited.status, 200);
  auto lparsed = Json::Parse(limited.body);
  ASSERT_TRUE(lparsed.ok());
  EXPECT_LE(lparsed.value().Find("triggers")->AsArray().size(), 1u);

  // Repairs endpoint answers (events may be empty: fleet is diagnose-only).
  const ClientResponse repairs =
      Request(port, "GET", "/v1/repairs?limit=5", "acme");
  EXPECT_EQ(repairs.status, 200);

  // Graceful stop, then verify the determinism contract: the accepted
  // stream replays bit-identically at 1 and 4 ingest threads.
  stack.server->Stop();
  const auto streams = stack.server->accepted_streams();
  ASSERT_EQ(streams.count(1u), 1u);
  const online::ReplayLog& accepted = streams.at(1);
  EXPECT_EQ(accepted.records.size(), incident.records.size());
  EXPECT_EQ(accepted.samples.size(), incident.samples.size());

  const LogStore catalog = CatalogStore();
  online::ReplayOptions roptions;
  roptions.num_ingest_threads = 1;
  const std::string fp1 =
      online::RunReplay(accepted, catalog, roptions).Fingerprint();
  roptions.num_ingest_threads = 4;
  const std::string fp4 =
      online::RunReplay(accepted, catalog, roptions).Fingerprint();
  EXPECT_EQ(fp1, fp4);
  EXPECT_FALSE(fp1.empty());
}

TEST(ServeServerTest, SixtyFourBitSqlIdRoundTripsThroughReports) {
  // Fingerprint ids use all 64 bits, past what a JSON number carries
  // exactly; the wire takes them in the hex form /v1/reports emits.
  constexpr uint64_t kHeavy = 0xC0FFEE0123456789ULL;  // > 2^53
  Stack stack = MakeStack();
  TemplateCatalogEntry heavy;
  heavy.template_text = "SELECT * FROM big ORDER BY v";
  heavy.kind = sqltpl::StatementKind::kSelect;
  heavy.tables = {"big"};
  stack.fleet->RegisterTemplateFleetWide(kHeavy, heavy);
  ASSERT_TRUE(stack.server->Start().ok());

  const online::ReplayLog incident = SyntheticIncident();
  size_t cursor = 0;
  uint64_t sent = 0;
  for (const online::PerfSample& sample : incident.samples) {
    std::vector<QueryLogRecord> second_records;
    while (cursor < incident.records.size() &&
           incident.records[cursor].arrival_ms < (sample.sec + 1) * 1000) {
      QueryLogRecord r = incident.records[cursor++];
      if (r.sql_id == 9) r.sql_id = kHeavy;
      second_records.push_back(r);
    }
    IngestOneRound(stack.server.get(),
                   BatchBody(1, second_records, {sample}, /*hex_ids=*/true),
                   &sent);
  }

  const Json* rsqls = nullptr;
  Json parsed;
  for (int attempt = 0; attempt < 500 && rsqls == nullptr; ++attempt) {
    const HttpResponse response = stack.server->HandleRequest(
        AcmeRequest("GET", "/v1/reports?limit=10"), Server::NowMs());
    ASSERT_EQ(response.status, 200);
    parsed = Json::Parse(response.body).value();
    const Json* reports = parsed.Find("reports");
    ASSERT_NE(reports, nullptr);
    if (!reports->AsArray().empty()) {
      const Json* report = reports->AsArray().front().Find("report");
      ASSERT_NE(report, nullptr);
      rsqls = report->Find("rsqls");
      ASSERT_NE(rsqls, nullptr);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_NE(rsqls, nullptr) << "no diagnosis surfaced via /v1/reports";
  ASSERT_FALSE(rsqls->AsArray().empty());
  EXPECT_EQ(rsqls->AsArray().front().GetStringOr("sql_id", ""),
            HashToHex(kHeavy));
}

TEST(ServeServerTest, AdvancedToSecIsPublishedAfterItsReportsAreCached) {
  // A client that waits for advanced_to_sec >= s before reading
  // /v1/reports (as a load generator does) must find every outcome the
  // advance to s completed: the pump publishes advanced_to_sec only after
  // AdvanceTo returned and the read caches were refreshed.
  Stack stack = MakeStack();
  ASSERT_TRUE(stack.server->Start().ok());
  const online::ReplayLog incident = SyntheticIncident();
  size_t cursor = 0;
  uint64_t sent = 0;
  size_t most_reports = 0;
  for (const online::PerfSample& sample : incident.samples) {
    std::vector<QueryLogRecord> second_records;
    while (cursor < incident.records.size() &&
           incident.records[cursor].arrival_ms < (sample.sec + 1) * 1000) {
      second_records.push_back(incident.records[cursor++]);
    }
    IngestOneRound(stack.server.get(),
                   BatchBody(1, second_records, {sample}), &sent);
    for (int spin = 0; stack.server->stats().advanced_to_sec < sample.sec;
         ++spin) {
      ASSERT_LT(spin, 50'000) << "never advanced to " << sample.sec;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const HttpResponse response = stack.server->HandleRequest(
        AcmeRequest("GET", "/v1/reports?limit=1000"), Server::NowMs());
    ASSERT_EQ(response.status, 200);
    auto parsed = Json::Parse(response.body);
    ASSERT_TRUE(parsed.ok());
    const size_t reports = parsed.value().Find("reports")->AsArray().size();
    // Nothing else is in flight, so the fleet's completions are final.
    const fleet::FleetStats fleet_stats = stack.fleet->stats();
    ASSERT_EQ(reports, fleet_stats.diagnoses_ok + fleet_stats.diagnoses_failed +
                           fleet_stats.storm_deferred)
        << "advanced_to_sec reached " << sample.sec
        << " before its outcomes were readable";
    most_reports = std::max(most_reports, reports);
  }
  // Not vacuous: the incident was diagnosed while streaming.
  EXPECT_GE(most_reports, 1u);
}

TEST(ServeServerTest, StopDrainsAcceptedBatchesIntoTheFleet) {
  ServerOptions soptions;
  soptions.advance_interval_ms = 1000;  // pump likely idle until Stop
  Stack stack = MakeStack(soptions);
  ASSERT_TRUE(stack.server->Start().ok());
  const uint16_t port = stack.server->port();

  std::vector<QueryLogRecord> records(20);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].arrival_ms = 500'000'000 + static_cast<int64_t>(i * 10);
    records[i].sql_id = 1 + i % 4;
    records[i].response_ms = 2.0;
    records[i].examined_rows = 10;
  }
  const ClientResponse response =
      Request(port, "POST", "/v1/ingest", "acme",
              BatchBody(1, records, {Sample(500'000, 4.0)}));
  ASSERT_EQ(response.status, 202);

  stack.server->Stop();
  // Everything accepted was delivered before Stop() returned.
  const ServerStats stats = stack.server->stats();
  EXPECT_EQ(stats.records_delivered, records.size());
  EXPECT_EQ(stats.samples_delivered, 1u);
  const fleet::FleetStats fstats = stack.fleet->stats();
  EXPECT_EQ(fstats.ingest.records_enqueued, records.size());

  // A second Stop is a no-op.
  stack.server->Stop();
}

TEST(ServeServerTest, LaggingInstanceRecordsAreFoldedNotDroppedLate) {
  // Instance 1's sender runs 300 s of sample time ahead; instance 2's
  // batches then arrive in order, one delivery round each, while the fleet
  // clock stands at instance 1's last second. Every round must fold the
  // staged records before instance 2's own samples age them past the
  // 120 s late grace.
  Stack stack = MakeStack({}, {{1, 0}, {2, 0}});
  ASSERT_TRUE(stack.server->Start().ok());
  constexpr int64_t kSeconds = 300;
  constexpr int kRecordsPerSec = 5;
  uint64_t sent = 0;
  const auto send_and_wait = [&](uint32_t instance, int64_t sec) {
    std::vector<QueryLogRecord> records(kRecordsPerSec);
    for (int k = 0; k < kRecordsPerSec; ++k) {
      records[k].arrival_ms = sec * 1000 + k * 100;
      records[k].sql_id = 1 + k % 4;
      records[k].response_ms = 2.0;
      records[k].examined_rows = 20;
    }
    IngestOneRound(stack.server.get(),
                   BatchBody(instance, records, {Sample(sec, 4.0)}), &sent);
  };
  for (int64_t sec = 0; sec < kSeconds; ++sec) send_and_wait(1, sec);
  for (int64_t sec = 0; sec < kSeconds; ++sec) send_and_wait(2, sec);

  stack.server->Stop();
  stack.fleet->Stop();
  const fleet::FleetStats stats = stack.fleet->stats();
  EXPECT_EQ(stats.ingest.records_dropped_late, 0u);
  EXPECT_EQ(stats.ingest.records_folded, 2 * kSeconds * kRecordsPerSec);
}

TEST(ServeServerTest, BacklogLongerThanTheLateGraceIsFoldedNotDropped) {
  // 320 one-second batches of one instance are staged before the pump
  // starts, so its first round carries 256 s of that instance's sample
  // time: the pump must fold before a sample ages the staged records past
  // the 120 s late grace.
  Stack stack = MakeStack();
  const online::ReplayLog incident = SyntheticIncident();
  size_t cursor = 0;
  for (const online::PerfSample& sample : incident.samples) {
    std::vector<QueryLogRecord> second_records;
    while (cursor < incident.records.size() &&
           incident.records[cursor].arrival_ms < (sample.sec + 1) * 1000) {
      second_records.push_back(incident.records[cursor++]);
    }
    ASSERT_EQ(stack.server
                  ->HandleRequest(AcmeRequest("POST", "/v1/ingest",
                                              BatchBody(1, second_records,
                                                        {sample})),
                                  Server::NowMs())
                  .status,
              202);
  }
  ASSERT_TRUE(stack.server->Start().ok());
  stack.server->Stop();
  stack.fleet->Stop();
  const fleet::FleetStats stats = stack.fleet->stats();
  EXPECT_EQ(stats.ingest.records_dropped_late, 0u);
  EXPECT_EQ(stats.ingest.records_folded, incident.records.size());
}

TEST(ServeServerTest, ConnectionTableIsBounded) {
  ServerOptions soptions;
  soptions.max_connections = 4;
  Stack stack = MakeStack(soptions);
  ASSERT_TRUE(stack.server->Start().ok());
  const uint16_t port = stack.server->port();

  std::vector<int> fds;
  for (int i = 0; i < 12; ++i) {
    const int fd = ConnectTo(port);
    if (fd >= 0) fds.push_back(fd);
  }
  // Give the event loop time to accept/reject the backlog.
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (stack.server->stats().connections_rejected_table_full > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(stack.server->stats().connections_rejected_table_full, 0u);
  for (int fd : fds) ::close(fd);
}

}  // namespace
}  // namespace pinsql::serve
