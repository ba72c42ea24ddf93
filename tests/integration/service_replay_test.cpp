// Crash-consistency contract of the spcdd daemon, end to end in a real
// subprocess: SIGKILL mid-session (tenants registered, batches acked,
// decisions journaled, nobody said bye) must leave a journal that
// `spcdd --replay` accepts with zero digest mismatches, and that rebuilds
// the identical decision stream and metrics snapshot on every replay.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "svc/driver.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "svc/transport.hpp"
#include "util/journal.hpp"

namespace spcd {
namespace {

std::string tmp_path(const char* name) { return testing::TempDir() + name; }

/// Launch `spcdd --serve` on the given socket/journal; stdout to /dev/null.
pid_t spawn_daemon(const std::string& socket, const std::string& journal) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int null_fd = ::open("/dev/null", O_WRONLY);
  if (null_fd >= 0) {
    ::dup2(null_fd, STDOUT_FILENO);
    ::close(null_fd);
  }
  const char* argv[] = {SPCDD_BINARY,    "--serve",  "--socket",
                        socket.c_str(),  "--journal", journal.c_str(),
                        "--interval",    "512",       nullptr};
  ::execv(SPCDD_BINARY, const_cast<char* const*>(argv));
  std::perror("execv spcdd");
  std::_Exit(127);
}

/// Run `spcdd --replay` to completion and return its exit code.
int run_replay_cli(const std::string& journal) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) {
      ::dup2(null_fd, STDOUT_FILENO);
      ::close(null_fd);
    }
    const char* argv[] = {SPCDD_BINARY, "--replay", journal.c_str(),
                          nullptr};
    ::execv(SPCDD_BINARY, const_cast<char* const*>(argv));
    std::perror("execv spcdd");
    std::_Exit(127);
  }
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ServiceReplayTest, ServeExitsOneWhenJournalCannotBeCreated) {
  // A daemon that cannot create its journal must not start serving: every
  // ack it gave would promise durability it cannot provide.
  const std::string socket = tmp_path("service_replay_nojournal.sock");
  std::remove(socket.c_str());
  const pid_t daemon =
      spawn_daemon(socket, tmp_path("no_such_dir/session.journal"));
  ASSERT_GT(daemon, 0);
  int status = 0;
  pid_t reaped = 0;
  for (int i = 0; i < 500 && reaped == 0; ++i) {
    reaped = ::waitpid(daemon, &status, WNOHANG);
    if (reaped == 0) ::usleep(10'000);
  }
  if (reaped == 0) {
    ::kill(daemon, SIGKILL);
    ::waitpid(daemon, &status, 0);
    FAIL() << "spcdd kept serving without a journal";
  }
  ASSERT_EQ(reaped, daemon);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  std::remove(socket.c_str());
}

TEST(ServiceReplayTest, SigkilledSessionReplaysByteIdentically) {
  const std::string socket = tmp_path("service_replay.sock");
  const std::string journal = tmp_path("service_replay.journal");
  std::remove(socket.c_str());
  std::remove(journal.c_str());

  const pid_t daemon = spawn_daemon(socket, journal);
  ASSERT_GT(daemon, 0);

  // Three tenants register and push acked batches; enough events cross
  // several 512-event arbitration boundaries, so the journal carries
  // decisions. Nobody says bye — the SIGKILL lands mid-session.
  svc::DriverConfig driver;
  driver.threads_per_tenant = 4;
  driver.events_per_batch = 256;
  std::vector<std::unique_ptr<svc::Transport>> clients;
  std::uint64_t last_acked_seq = 0;
  for (std::uint32_t t = 0; t < 3; ++t) {
    std::string error;
    auto client = svc::connect_unix(socket, 10'000, &error);
    ASSERT_NE(client, nullptr) << error;
    ASSERT_TRUE(client->send(
        svc::encode_hello("crash-" + std::to_string(t), 4)));
    std::string payload;
    ASSERT_EQ(client->recv(&payload, 5'000),
              svc::Transport::RecvStatus::kFrame);
    const auto welcome = svc::parse_message(payload);
    ASSERT_TRUE(welcome.has_value());
    ASSERT_EQ(welcome->type, svc::MessageType::kWelcome);
    for (std::uint32_t batch = 0; batch < 4; ++batch) {
      ASSERT_TRUE(client->send(
          svc::encode_fault_batch(batch + 1, svc::scripted_batch(driver, t, batch))));
      ASSERT_EQ(client->recv(&payload, 5'000),
                svc::Transport::RecvStatus::kFrame);
      const auto ack = svc::parse_message(payload);
      ASSERT_TRUE(ack.has_value());
      ASSERT_EQ(ack->type, svc::MessageType::kBatchAck);
      last_acked_seq = ack->seq;
    }
    clients.push_back(std::move(client));
  }
  ASSERT_GT(last_acked_seq, 0u);

  // SIGKILL: no drain, no final decision, no flush beyond the per-commit
  // fsyncs the ack contract already required.
  ASSERT_EQ(::kill(daemon, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(daemon, &status, 0), daemon);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  for (auto& client : clients) client->close();

  // Replay #1: every acked commit is present and no decision diverges.
  const svc::SpcdService::ReplayResult first =
      svc::SpcdService::replay(journal);
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_NE(first.service, nullptr);
  EXPECT_EQ(first.digest_mismatches, 0u);
  EXPECT_GT(first.decisions_checked, 0u);
  // Every journaled record came back: 3 registers + 12 batches, plus one
  // record per journaled decision.
  EXPECT_EQ(first.records_applied, 3u + 12u + first.decisions_checked);
  EXPECT_GE(first.records_applied, last_acked_seq);
  EXPECT_EQ(first.service->registered_tenants(), 3u);
  EXPECT_EQ(first.service->total_events(), 3u * 4u * 256u);

  // Replay #2 must reproduce replay #1 byte for byte: decisions text and
  // the metrics snapshot are pure functions of the journal.
  const svc::SpcdService::ReplayResult second =
      svc::SpcdService::replay(journal);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.service->decisions_text(),
            first.service->decisions_text());
  EXPECT_EQ(second.service->metrics_json(), first.service->metrics_json());

  // The CLI agrees: `spcdd --replay` exits 0 on this journal.
  EXPECT_EQ(run_replay_cli(journal), 0);

  std::remove(socket.c_str());
  std::remove(journal.c_str());
}

TEST(ServiceReplayTest, ReplayCliRejectsCorruptedDecisionDigest) {
  const std::string socket = tmp_path("service_replay_bad.sock");
  const std::string journal = tmp_path("service_replay_bad.journal");
  std::remove(socket.c_str());
  std::remove(journal.c_str());

  const pid_t daemon = spawn_daemon(socket, journal);
  ASSERT_GT(daemon, 0);
  {
    std::string error;
    auto client = svc::connect_unix(socket, 10'000, &error);
    ASSERT_NE(client, nullptr) << error;
    svc::DriverConfig driver;
    driver.threads_per_tenant = 4;
    driver.events_per_batch = 256;
    ASSERT_TRUE(client->send(svc::encode_hello("corrupt", 4)));
    std::string payload;
    ASSERT_EQ(client->recv(&payload, 5'000),
              svc::Transport::RecvStatus::kFrame);
    for (std::uint32_t batch = 0; batch < 4; ++batch) {
      ASSERT_TRUE(client->send(
          svc::encode_fault_batch(batch + 1, svc::scripted_batch(driver, 0, batch))));
      ASSERT_EQ(client->recv(&payload, 5'000),
                svc::Transport::RecvStatus::kFrame);
    }
    client->close();
  }
  ASSERT_EQ(::kill(daemon, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(daemon, &status, 0), daemon);

  // Flip one hex digit inside a journaled decision digest, rewriting the
  // journal through rotate() so the record's CRC frame stays valid (a raw
  // byte flip would just read as a torn tail). The replay must detect the
  // semantic divergence and the CLI must exit nonzero.
  {
    util::Journal::LoadResult loaded = util::Journal::load(journal);
    ASSERT_TRUE(loaded.valid);
    bool corrupted = false;
    for (std::string& record : loaded.records) {
      if (record.rfind("arb ", 0) != 0) continue;
      char& digit = record.back();
      digit = digit == '0' ? '1' : '0';
      corrupted = true;
      break;
    }
    ASSERT_TRUE(corrupted) << "no decision journaled";
    util::Journal rotated =
        util::Journal::rotate(journal, loaded.meta, loaded.records);
    ASSERT_TRUE(rotated.ok());
  }
  const svc::SpcdService::ReplayResult replayed =
      svc::SpcdService::replay(journal);
  EXPECT_FALSE(replayed.ok);
  EXPECT_NE(run_replay_cli(journal), 0);

  std::remove(socket.c_str());
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace spcd
