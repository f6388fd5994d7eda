// Executable-level end-to-end test: launches the real brisk_ism, brisk_exs
// and brisk_consume binaries (the deployment a user runs), attaches to the
// EXS's named shared-memory region as "the application", and verifies
// records flow NOTICE → ring → EXS process → TCP → ISM process → named
// output shm → consumer process.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/time_util.hpp"
#include "core/brisk_node.hpp"
#include "shm/shared_region.hpp"

#if !defined(BRISK_APPS_DIR) || !defined(BRISK_TESTDATA_DIR)
#error "BRISK_APPS_DIR and BRISK_TESTDATA_DIR must be defined by the build"
#endif

namespace brisk {
namespace {

using sensors::x_i32;

/// A spawned daemon. Whatever way the test leaves — a failed ASSERT
/// included — the destructor stops and reaps the child, so no orphan keeps
/// the test's output pipe open and ctest waiting on it.
struct ChildProcess {
  pid_t pid = -1;
  int stdout_fd = -1;

  ChildProcess() = default;
  ChildProcess(ChildProcess&& other) noexcept
      : pid(std::exchange(other.pid, -1)), stdout_fd(std::exchange(other.stdout_fd, -1)) {}
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;
  ChildProcess& operator=(ChildProcess&&) = delete;
  ~ChildProcess() { (void)terminate_and_wait(); }

  /// SIGTERMs the child and reaps it, SIGKILLing it if it has not exited
  /// within two seconds; returns the wait status. A child that has already
  /// exited keeps its own status.
  int terminate_and_wait() {
    if (pid > 0) {
      ::kill(pid, SIGTERM);
      int status = 0;
      const TimeMicros deadline = monotonic_micros() + 2'000'000;
      pid_t reaped = ::waitpid(pid, &status, WNOHANG);
      while (reaped == 0 && monotonic_micros() < deadline) {
        sleep_micros(10'000);
        reaped = ::waitpid(pid, &status, WNOHANG);
      }
      if (reaped == 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
      }
      pid = -1;
      close_stdout();
      return status;
    }
    close_stdout();
    return 0;
  }

  void close_stdout() {
    if (stdout_fd >= 0) {
      ::close(stdout_fd);
      stdout_fd = -1;
    }
  }
};

/// Spawns `binary args...` with `captured_fd` (stdout by default) captured
/// in a pipe.
ChildProcess spawn(const std::string& binary, std::vector<std::string> args,
                   int captured_fd = STDOUT_FILENO) {
  int pipe_fds[2];
  EXPECT_EQ(::pipe(pipe_fds), 0);
  ChildProcess child;
  child.pid = ::fork();
  if (child.pid == 0) {
    ::dup2(pipe_fds[1], captured_fd);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    std::vector<char*> argv;
    static std::string bin_storage;
    bin_storage = binary;
    argv.push_back(bin_storage.data());
    for (auto& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    _exit(127);
  }
  ::close(pipe_fds[1]);
  child.stdout_fd = pipe_fds[0];
  return child;
}

/// Reads the child's stdout until `marker` appears (or timeout); returns
/// everything read so far.
std::string read_until(ChildProcess& child, const std::string& marker,
                       TimeMicros timeout = 10'000'000) {
  std::string output;
  const TimeMicros deadline = monotonic_micros() + timeout;
  const int flags = ::fcntl(child.stdout_fd, F_GETFL, 0);
  ::fcntl(child.stdout_fd, F_SETFL, flags | O_NONBLOCK);
  while (monotonic_micros() < deadline) {
    char chunk[4096];
    const ssize_t n = ::read(child.stdout_fd, chunk, sizeof chunk);
    if (n > 0) {
      output.append(chunk, static_cast<std::size_t>(n));
      if (output.find(marker) != std::string::npos) break;
    } else if (n == 0) {
      break;  // child closed stdout
    } else {
      sleep_micros(10'000);
    }
  }
  return output;
}

/// Unlinks named shm regions when the test leaves, whatever way it leaves —
/// a failed ASSERT included — so no segment outlives the test. Declared
/// before the daemons, it runs after their destructors have stopped them.
struct UnlinkRegionsOnExit {
  std::vector<std::string> names;
  ~UnlinkRegionsOnExit() {
    for (const std::string& name : names) {
      auto region = shm::SharedRegion::open_named(name);
      if (region.is_ok()) (void)region.value().unlink();
    }
  }
};

TEST(AppsTest, ThreeExecutableDeployment) {
  const std::string apps_dir = BRISK_APPS_DIR;
  const std::string suffix = std::to_string(::getpid());
  const std::string node_shm = "/brisk-apps-node-" + suffix;
  const std::string out_shm = "/brisk-apps-out-" + suffix;
  // brisk_ism owns the output region and brisk_exs the node region; neither
  // unlinks on SIGTERM.
  const UnlinkRegionsOnExit unlink_on_exit{{node_shm, out_shm}};

  // --- brisk_ism -------------------------------------------------------------
  ChildProcess ism = spawn(apps_dir + "/brisk_ism",
                           {"--port", "0", "--shm", out_shm, "--select-timeout-us", "2000",
                            "--sync-period-us", "200000"});
  ASSERT_GT(ism.pid, 0);
  const std::string ism_banner = read_until(ism, "listening on 127.0.0.1:");
  const std::size_t port_pos = ism_banner.find("listening on 127.0.0.1:");
  ASSERT_NE(port_pos, std::string::npos) << "ism banner: " << ism_banner;
  const std::uint16_t port = static_cast<std::uint16_t>(
      std::strtoul(ism_banner.c_str() + port_pos + std::strlen("listening on 127.0.0.1:"),
                   nullptr, 10));
  ASSERT_GT(port, 0);

  // --- brisk_exs (creates the node's named region) -----------------------------
  ChildProcess exs = spawn(apps_dir + "/brisk_exs",
                           {"--node", "1", "--shm", node_shm, "--ism-port",
                            std::to_string(port), "--select-timeout-us", "2000",
                            "--batch-age-us", "1000"});
  ASSERT_GT(exs.pid, 0);
  (void)read_until(exs, "node 1");

  // --- the instrumented application: attach to the EXS's region ----------------
  NodeConfig node_config;
  node_config.node = 1;
  node_config.shm_name = node_shm;
  Result<std::unique_ptr<BriskNode>> app = Status(Errc::not_found, "pending");
  const TimeMicros deadline = monotonic_micros() + 5'000'000;
  while (monotonic_micros() < deadline) {
    app = BriskNode::attach(node_config);
    if (app.is_ok()) break;
    sleep_micros(20'000);
  }
  ASSERT_TRUE(app.is_ok()) << app.status().to_string();
  auto sensor = app.value()->make_sensor();
  ASSERT_TRUE(sensor.is_ok());

  constexpr int kEvents = 200;
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_TRUE(BRISK_NOTICE(sensor.value(), 7, x_i32(i)));
  }

  // --- brisk_consume: drains the ISM's named output region ---------------------
  ChildProcess consume = spawn(apps_dir + "/brisk_consume",
                               {"--shm", out_shm, "--mode", "picl", "--max-records",
                                std::to_string(kEvents), "--idle-exit-ms", "8000"});
  ASSERT_GT(consume.pid, 0);
  const std::string picl_output = read_until(consume, "X_I32=" + std::to_string(kEvents - 1));
  int status = 0;
  ASSERT_EQ(::waitpid(consume.pid, &status, 0), consume.pid);
  consume.pid = -1;
  consume.close_stdout();
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // Every record made it through, in per-node order.
  int lines = 0;
  for (char c : picl_output) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, kEvents) << picl_output.substr(0, 400);
  EXPECT_NE(picl_output.find("X_I32=0"), std::string::npos);

  exs.terminate_and_wait();
  // The exit summary names every loss counter; this run loses nothing.
  ::kill(ism.pid, SIGTERM);
  const std::string summary = read_until(ism, "merge inversions\n");
  EXPECT_NE(summary.find("\nloss: 0 gateway lane drops, 0 subscriber queue drops, "
                         "0 subscribers evicted, 0 shm ring refusals, "
                         "0 sorter overflow drops, 0 merge inversions\n"),
            std::string::npos)
      << summary;
  ism.terminate_and_wait();
}

// Bad option values are usage errors: exit 2 before anything binds or
// attaches, with a message that names the offending value.
TEST(AppsTest, BadOptionValuesExitTwo) {
  const std::string apps_dir = BRISK_APPS_DIR;
  struct Case {
    std::string binary;
    std::vector<std::string> args;
    std::string named;
  };
  const std::vector<Case> cases{
      {"brisk_ism", {"--sync-algorithm", "bogus"}, "bogus"},
      {"brisk_ism", {"--poller", "uring"}, "uring"},
      {"brisk_exs", {"--poller", "uring", "--shm", "/brisk-apps-unused", "--ism-port", "1"},
       "uring"},
      {"brisk_ism", {"--readiness-pump=false"}, "readiness-pump"},
      {"brisk_ism", {"--ack-period-us", "0"}, "ack_period_us"},
      {"brisk_ism", {"--ism-credit-records", "-1"}, "--ism-credit-records"},
      {"brisk_ism", {"--ism-credit-records", "4294967296"}, "--ism-credit-records"},
      {"brisk_ism", {"--ism-credit-bytes", "-1"}, "--ism-credit-bytes"},
      // Negative counts once wrapped to SIZE_MAX and spun forever sizing a
      // queue; negative node ids wrapped to the reserved metrics node.
      {"brisk_ism", {"--shard-queue-records", "-1", "--ism-sorter-shards", "2"},
       "--shard-queue-records"},
      {"brisk_ism", {"--consumer-lane-records", "-1", "--consumer-port", "0"},
       "--consumer-lane-records"},
      {"brisk_ism", {"--relay-queue-records", "-1", "--relay-to", "127.0.0.1:1"},
       "--relay-queue-records"},
      {"brisk_ism", {"--relay-node", "-1", "--relay-to", "127.0.0.1:1"}, "--relay-node"},
      {"brisk_exs", {"--node", "-1", "--shm", "/brisk-apps-unused", "--ism-port", "1"},
       "--node"},
      {"brisk_exs", {"--node", "4294967295", "--shm", "/brisk-apps-unused", "--ism-port", "1"},
       "--node"},
      // Once cast unchecked: a port past 65535 wrapped, and a zero or
      // negative sync period or a negative frame or replenish period ran.
      {"brisk_ism", {"--consumer-port", "70000"}, "--consumer-port"},
      {"brisk_ism", {"--sync-period-us", "0"}, "--sync-period-us"},
      {"brisk_ism", {"--sync-period-us", "-5"}, "--sync-period-us"},
      {"brisk_ism", {"--frame-us", "-5"}, "--frame-us"},
      {"brisk_ism", {"--credit-replenish-us", "-1"}, "--credit-replenish-us"},
      // A cross-field check once ran only inside BriskNode::create (exit 1).
      {"brisk_exs",
       {"--backoff-cap-us", "10", "--shm", "/brisk-apps-unused", "--ism-port", "1"},
       "backoff cap below base"},
  };
  for (const Case& c : cases) {
    ChildProcess child = spawn(apps_dir + "/" + c.binary, c.args, STDERR_FILENO);
    // The marker never appears: this reads stderr until the child exits.
    const std::string err = read_until(child, std::string(1, '\0'));
    const int status = child.terminate_and_wait();
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 2)
        << c.binary << " " << c.args[0] << ": " << err;
    EXPECT_NE(err.find(c.named), std::string::npos) << c.binary << ": " << err;
  }
}

// --help of every binary is generated from its flag declarations (the
// daemons' from their knob tables); it must match the reference text byte
// for byte, so a table edit cannot silently reorder or reword a flag.
TEST(AppsTest, HelpTextGolden) {
  const std::string apps_dir = BRISK_APPS_DIR;
  for (const std::string binary : {"brisk_ism", "brisk_exs", "brisk_consume"}) {
    std::ifstream golden(std::string(BRISK_TESTDATA_DIR) + "/" + binary + ".help");
    ASSERT_TRUE(golden.is_open()) << binary;
    std::stringstream expected;
    expected << golden.rdbuf();
    ChildProcess child = spawn(apps_dir + "/" + binary, {"--help"});
    const std::string help = read_until(child, std::string(1, '\0'));
    const int status = child.terminate_and_wait();
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << binary;
    EXPECT_EQ(help, expected.str()) << binary;
  }
}

}  // namespace
}  // namespace brisk
