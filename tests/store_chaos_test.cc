// Kill-9 chaos verification for the durable store: a child process streams
// the synthetic incident into a DurableOnlineService and is SIGKILLed at
// seeded points mid-ingest. The parent then derives the confirmed input by
// scanning the surviving WAL, replays it through the deterministic replay
// harness, and asserts the recovered service's fingerprint is byte-identical
// to that uninterrupted reference. A corruption variant flips a byte in the
// surviving segment and asserts detection plus clean-prefix equality.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "online/replay.h"
#include "store/durable_service.h"
#include "store/env.h"
#include "store/wal.h"

namespace pinsql::store {
namespace {

std::string MakeTempDir() {
  std::string tmpl = ::testing::TempDir() + "pinsql_chaos_XXXXXX";
  EXPECT_NE(mkdtemp(tmpl.data()), nullptr);
  return tmpl;
}

/// Directory holding the test binary; the chaos child is built next to it.
std::string SelfDir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  EXPECT_GT(n, 0);
  std::string path(buf, static_cast<size_t>(n));
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

LogStore SyntheticCatalog() {
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

pid_t SpawnChild(const std::string& data_dir, const std::string& progress,
                 int checkpoint_every_sec) {
  const std::string child = SelfDir() + "/store_chaos_child";
  const std::string ckpt = std::to_string(checkpoint_every_sec);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execl(child.c_str(), child.c_str(), data_dir.c_str(), progress.c_str(),
            ckpt.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed
  }
  EXPECT_GT(pid, 0);
  return pid;
}

/// Polls the child's progress file until it reports at least
/// `threshold` samples ingested. Returns false on timeout or child death.
bool WaitForProgress(pid_t pid, const std::string& progress, long threshold) {
  for (int spins = 0; spins < 30'000; ++spins) {  // ~60 s ceiling
    std::ifstream in(progress);
    long value = -1;
    if (in >> value && value >= threshold) return true;
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, WNOHANG) == pid) return false;  // died early
    ::usleep(2000);
  }
  return false;
}

void KillChild(pid_t pid) {
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);
}

/// Runs the chaos child until `kill_after_samples` are ingested, then
/// SIGKILLs it. The data dir is left exactly as the crash left it.
void RunKilledChild(const std::string& data_dir, long kill_after_samples,
                    int checkpoint_every_sec) {
  const std::string progress = data_dir + "/progress";
  const pid_t pid = SpawnChild(data_dir, progress, checkpoint_every_sec);
  ASSERT_TRUE(WaitForProgress(pid, progress, kill_after_samples))
      << "child never reached sample " << kill_after_samples;
  KillChild(pid);
}

/// The confirmed input is whatever the surviving WAL delivers: a full
/// scan from the stream base, torn tail truncated, corrupt frames
/// discarded. Trailing records without a sample are kept — RunReplay
/// folds them into its last second exactly as the recovered service
/// stages and drains them.
online::ReplayLog ScanConfirmedInput(const std::string& data_dir,
                                     WalScanStats* stats) {
  online::ReplayLog log;
  const Status status = ScanWal(
      PosixEnv(), data_dir, WalOptions(), WalPosition{},
      [&log](const WalFrame& frame) {
        switch (frame.kind) {
          case FrameKind::kRecordBatch:
            log.records.insert(log.records.end(), frame.records.begin(),
                               frame.records.end());
            break;
          case FrameKind::kSample:
            log.samples.push_back(frame.sample);
            break;
          default:
            break;  // templates re-register from the catalog; no events yet
        }
      },
      stats);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return log;
}

std::string ReferenceFingerprint(const online::ReplayLog& log) {
  online::ReplayOptions options;  // replays always zero timings
  return RunReplay(log, SyntheticCatalog(), options).Fingerprint();
}

DurableServiceOptions RecoverOpts(int64_t checkpoint_every_sec) {
  DurableServiceOptions options;
  options.service.scheduler.zero_timings = true;
  options.checkpoint_every_sec = checkpoint_every_sec;
  return options;
}

class StoreChaosTest : public ::testing::TestWithParam<long> {};

/// The acceptance gate: SIGKILL mid-ingest at a seeded point, recover,
/// and the replay fingerprint over the confirmed input must be
/// byte-identical to an uninterrupted run of the same input.
TEST_P(StoreChaosTest, RecoveryAfterSigkillIsByteIdentical) {
  const long kill_after = GetParam();
  const std::string dir = MakeTempDir();
  // checkpoint_every_sec=0 in the child: the WAL alone is the complete
  // confirmed input, so the parent can reconstruct it exactly.
  RunKilledChild(dir, kill_after, /*checkpoint_every_sec=*/0);

  WalScanStats scan;
  const online::ReplayLog confirmed = ScanConfirmedInput(dir, &scan);
  ASSERT_FALSE(scan.seq_gap);
  ASSERT_GE(static_cast<long>(confirmed.samples.size()), kill_after);
  const std::string reference = ReferenceFingerprint(confirmed);

  auto recovered = DurableOnlineService::Open(RecoverOpts(0), dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE((*recovered)->recovery().wal.seq_gap);
  EXPECT_GT((*recovered)->recovery().wal.frames_valid, 0u);
  ASSERT_TRUE((*recovered)->Stop().ok());
  EXPECT_EQ((*recovered)->Fingerprint(), reference);
  if (kill_after >= 300) {
    // Past the onset (sample index 200) the trigger must have fired.
    EXPECT_FALSE((*recovered)->outcomes().empty());
  }
}

// Kill points: mid-baseline, just past onset, and deep into the incident.
INSTANTIATE_TEST_SUITE_P(KillPoints, StoreChaosTest,
                         ::testing::Values(80L, 230L, 300L));

/// Sanity for the checkpointed path: with periodic checkpoints on, a
/// SIGKILLed run still recovers cleanly (checkpoint + WAL suffix) and the
/// incident is diagnosed after recovery.
TEST(StoreChaosCheckpointTest, KilledRunWithCheckpointsRecovers) {
  const std::string dir = MakeTempDir();
  RunKilledChild(dir, /*kill_after_samples=*/300, /*checkpoint_every_sec=*/60);

  auto recovered = DurableOnlineService::Open(RecoverOpts(60), dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const RecoveryStats& recovery = (*recovered)->recovery();
  EXPECT_TRUE(recovery.checkpoint_loaded);
  EXPECT_FALSE(recovery.wal.seq_gap);
  ASSERT_TRUE((*recovered)->Stop().ok());
  EXPECT_FALSE((*recovered)->outcomes().empty());
  EXPECT_FALSE((*recovered)->Fingerprint().empty());
}

/// Corrupting a frame mid-WAL must be detected — never silently ingested —
/// and recovery must land on the clean prefix, still byte-identical to an
/// uninterrupted run over that prefix.
TEST(StoreChaosCorruptionTest, FlippedByteIsDetectedAndPrefixRecovers) {
  const std::string dir = MakeTempDir();
  RunKilledChild(dir, /*kill_after_samples=*/300, /*checkpoint_every_sec=*/0);

  // The whole run fits in one open segment; flip a byte halfway through,
  // safely past the 24-byte segment header.
  const std::string segment = dir + "/" + SegmentFileName(1);
  std::string bytes;
  ASSERT_TRUE(PosixEnv()->ReadFile(segment, &bytes).ok());
  ASSERT_GT(bytes.size(), 1024u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  {
    std::ofstream f(segment, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // A fresh service opened on a copy of the corrupted segment must detect
  // the damage during its own recovery scan.
  const std::string copy_dir = MakeTempDir();
  {
    std::ofstream f(copy_dir + "/" + SegmentFileName(1), std::ios::binary);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto direct = DurableOnlineService::Open(RecoverOpts(0), copy_dir);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_GE((*direct)->recovery().wal.frames_corrupt, 1u);
  EXPECT_GT((*direct)->recovery().wal.torn_tail_bytes_truncated, 0u);
  ASSERT_TRUE((*direct)->Stop().ok());

  // The original dir: scan (detects + truncates the corrupt tail), then
  // recover and compare against the clean prefix.
  WalScanStats scan;
  const online::ReplayLog confirmed = ScanConfirmedInput(dir, &scan);
  EXPECT_GE(scan.frames_corrupt, 1u);
  EXPECT_LT(confirmed.samples.size(), 300u);  // corruption cost us data
  EXPECT_FALSE(confirmed.samples.empty());
  const std::string reference = ReferenceFingerprint(confirmed);

  auto recovered = DurableOnlineService::Open(RecoverOpts(0), dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_TRUE((*recovered)->Stop().ok());
  EXPECT_EQ((*recovered)->Fingerprint(), reference);
  EXPECT_EQ((*recovered)->Fingerprint(), (*direct)->Fingerprint());
}

}  // namespace
}  // namespace pinsql::store
