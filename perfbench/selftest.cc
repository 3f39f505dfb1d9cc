// Self-test of the benchmark's own bookkeeping. Run through
//   python3 perfbench/run.py --selftest
// which passes the path of BENCHMARK.json. Exit code = failed checks.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bookkeeping.h"
#include "traffic.h"
#include "util/json.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  Check(std::isnan(Percentile({}, 50)), "percentile of an empty sample is NaN");
  Check(Near(Percentile({5, 1, 3}, 50), 3), "nearest-rank median of 3");
  Check(Near(Percentile({1, 2, 3, 4}, 100), 4), "p100 is the maximum");
  Check(Near(Median({4, 1, 3, 2}), 2.5), "even-sized median averages");

  std::vector<double> ten(10, 1.0);
  Check(!TailPercentile(ten).valid, "tail needs more than 10 samples");
  std::vector<double> eleven;
  for (int i = 1; i <= 11; ++i) eleven.push_back(i);
  const TailValue t11 = TailPercentile(eleven);
  Check(t11.valid && Near(t11.value, 1) && t11.beyond == 10,
        "n=11: tail is the smallest value, 10 beyond");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  const TailValue t100 = TailPercentile(hundred);
  Check(t100.valid && Near(t100.value, 90) && Near(t100.percentile, 90),
        "n=100: tail is p90 with 10 beyond");
  std::vector<double> many;
  for (int i = 1; i <= 1000; ++i) many.push_back(i);
  const TailValue t1000 = TailPercentile(many);
  Check(Near(t1000.percentile, 99) && Near(t1000.value, 990),
        "n=1000: tail is p99");
  size_t beyond = 0;
  for (double v : many) beyond += v > t1000.value ? 1 : 0;
  Check(beyond == 10, "exactly 10 samples lie beyond the tail value");
}

void TestReportMatching() {
  // Three instances ship second s at s*100 + instance*30 ms; instance 2's
  // batch for second 108 is the first of that second to be acknowledged.
  std::vector<BatchAck> acks;
  for (int64_t sec = 100; sec <= 110; ++sec) {
    for (uint32_t inst : {0u, 1u, 2u}) {
      const double order = inst == 2 ? -1.0 : static_cast<double>(inst);
      acks.push_back({inst, sec, static_cast<double>(sec * 100) + order * 30.0});
    }
  }
  const std::vector<ReportSighting> reports = {
      {0, 95, 105, 10'850.0},  // due 108: first ack of 108 is 10'770
      {1, 99, 110, 11'500.0},  // due 113: never acknowledged
      {2, 90, 100, 10'320.0},  // due 103: first ack at 10'270
  };
  const ReportLatencies lat = MatchReportsToDue(reports, acks, 3);
  Check(lat.matched.size() == 2 && lat.unmatched.size() == 1 &&
            lat.unmatched[0] == 1,
        "a report whose due second was never sent stays unmatched");
  Check(lat.latency_ms.size() == 2 && Near(lat.latency_ms[0], 80.0),
        "latency runs from the earliest ack of the due second");
  Check(Near(lat.latency_ms[1], 50.0),
        "the due batch may belong to another instance");
}

void TestFailureLedger() {
  FailureLedger ledger;
  ledger.Add("ingest_requests", 1000, 0);
  ledger.Add("records", 50'000, 10);
  ledger.Add("report_reads", 200, 1);
  // A deliberately over-budget sender: its refusals are the point.
  ledger.Add("flood_requests", 500, 450, /*expected_success=*/false);
  Check(ledger.attempted() == 51'200, "over-budget sender is not attempted");
  Check(ledger.failed() == 11, "over-budget refusals are not failures");
  Check(Near(ledger.failed_share(), 11.0 / 51'200.0), "failed share");
  FailureLedger empty;
  Check(empty.failed_share() == 0.0, "empty ledger has no failures");
}

void TestMetricNames(const char* benchmark_json) {
  Check(IsValidMetricName("serve.handle_ns_per_rec"), "dotted name is valid");
  Check(!IsValidMetricName("_x"), "name must start alphanumeric");
  Check(!IsValidMetricName("a b"), "spaces are invalid");
  Check(!IsValidMetricName(std::string(65, 'a')), "at most 64 characters");
  std::ifstream in(benchmark_json);
  std::stringstream text;
  text << in.rdbuf();
  auto parsed = pinsql::Json::Parse(text.str());
  Check(parsed.ok(), std::string("BENCHMARK.json parses: ") + benchmark_json);
  if (!parsed.ok()) return;
  std::set<std::string> names;
  size_t listed = 0;
  for (const char* section : {"end_to_end", "per_layer", "workloads"}) {
    const pinsql::Json* list = parsed.value().Find(section);
    Check(list != nullptr && list->is_array(), std::string(section) + " is a list");
    if (list == nullptr || !list->is_array()) continue;
    for (const pinsql::Json& m : list->AsArray()) {
      const std::string name = m.GetStringOr("name", "");
      Check(IsValidMetricName(name), "valid name: " + name);
      names.insert(name);
      ++listed;
    }
  }
  Check(names.size() == listed, "every name in BENCHMARK.json is unique");
  const pinsql::Json* workloads = parsed.value().Find("workloads");
  std::vector<std::string> listed_workloads;
  if (workloads != nullptr && workloads->is_array()) {
    for (const pinsql::Json& w : workloads->AsArray()) {
      listed_workloads.push_back(w.GetStringOr("name", ""));
    }
  }
  Check(listed_workloads == WorkloadNames(),
        "BENCHMARK.json lists exactly the implemented workloads");
}

void TestTrafficDeterminism() {
  Traffic a, b, c;
  Check(MakeTraffic("fleet_steady", 7, &a) &&
            MakeTraffic("fleet_steady", 7, &b) &&
            MakeTraffic("fleet_steady", 8, &c),
        "traffic generates");
  Check(a.digest == b.digest && a.batches.size() == b.batches.size(),
        "same seed gives byte-identical requests");
  Check(a.digest != c.digest, "another seed gives other requests");
  Check(!MakeTraffic("no_such_workload", 7, &c), "unknown workload is refused");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::TestPercentiles();
  perfbench::TestReportMatching();
  perfbench::TestFailureLedger();
  perfbench::TestMetricNames(argc > 1 ? argv[1] : "BENCHMARK.json");
  perfbench::TestTrafficDeterminism();
  std::printf("%d failed\n", perfbench::failures);
  return perfbench::failures;
}
