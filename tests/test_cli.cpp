// End-to-end tests of the `ssched` CLI: invoked as a subprocess against the
// demo problem, the shipped example file, a live server, and error paths.
#include <gtest/gtest.h>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

extern char** environ;

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;
};

/// Runs a command, capturing stdout+stderr.
CliResult RunCommand(const std::string& command) {
  CliResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  while (std::size_t n = fread(buffer.data(), 1, buffer.size(), pipe)) {
    result.output.append(buffer.data(), n);
    if (n < buffer.size()) break;
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

/// Locates the ssched binary relative to the ctest working directory.
std::string FindSsched() {
  for (const char* path : {"tools/ssched", "./ssched", "../tools/ssched",
                           "build/tools/ssched"}) {
    if (FILE* f = fopen(path, "r")) {
      fclose(f);
      return path;
    }
  }
  return "";
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    binary_ = FindSsched();
    if (binary_.empty()) {
      GTEST_SKIP() << "ssched binary not found from test cwd";
    }
  }
  std::string binary_;
};

TEST_F(CliTest, DemoModeProducesSchedule) {
  auto result = RunCommand(binary_ + " --demo --frames 2");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("optimal schedule"), std::string::npos);
  EXPECT_NE(result.output.find("pipelined:"), std::string::npos);
  EXPECT_NE(result.output.find("channel occupancy"), std::string::npos);
  EXPECT_NE(result.output.find("T4"), std::string::npos);
}

TEST_F(CliTest, DemoHonoursAnExplicitRegimeZero) {
  // --demo defaults to regime 7 (8 models) only when --regime is absent.
  auto result = RunCommand(binary_ + " --demo --regime 0 --frames 2");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("optimal schedule (regime 0)"),
            std::string::npos)
      << result.output;
}

TEST_F(CliTest, HeuristicModeRuns) {
  auto result = RunCommand(binary_ + " --demo --heuristic --frames 2");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("heuristic"), std::string::npos);
}

TEST_F(CliTest, ThroughputBoundMode) {
  auto result =
      RunCommand(binary_ + " --demo --throughput-bound 4s --frames 2");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("throughput mode"), std::string::npos);
}

TEST_F(CliTest, InfeasibleThroughputBoundFails) {
  auto result =
      RunCommand(binary_ + " --demo --throughput-bound 1us --frames 2");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("error"), std::string::npos);
}

TEST_F(CliTest, MissingFileReportsError) {
  auto result = RunCommand(binary_ + " /nonexistent.ssg");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("error"), std::string::npos);
}

TEST_F(CliTest, NoArgumentsShowsUsage) {
  auto result = RunCommand(binary_);
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, BadRegimeRejected) {
  auto result = RunCommand(binary_ + " --demo --regime 99");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("out of range"), std::string::npos);
}

TEST_F(CliTest, UnknownFlagShowsUsage) {
  auto result = RunCommand(binary_ + " --demo --bogus-flag");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown option '--bogus-flag'"),
            std::string::npos);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, MissingFlagOperandShowsUsage) {
  auto result = RunCommand(binary_ + " --demo --regime");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);

  auto frames = RunCommand(binary_ + " --demo --frames");
  EXPECT_EQ(frames.exit_code, 2);
  EXPECT_NE(frames.output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, NonNumericOperandShowsUsage) {
  auto result = RunCommand(binary_ + " --demo --regime banana");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("expects an integer"), std::string::npos);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);

  auto gantt = RunCommand(binary_ + " --demo --gantt-ms 1.5x");
  EXPECT_EQ(gantt.exit_code, 2);
  EXPECT_NE(gantt.output.find("expects a number"), std::string::npos);
}

TEST_F(CliTest, SecondPositionalOperandRejected) {
  auto result = RunCommand(binary_ + " a.ssg b.ssg");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("more than one input file"),
            std::string::npos);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, NonPositiveServeBenchRejected) {
  auto result = RunCommand(binary_ + " --demo --serve-bench 0");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("positive"), std::string::npos);
}

TEST_F(CliTest, ServeBenchReportsServiceStats) {
  auto result = RunCommand(binary_ + " --demo --serve-bench 2");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("serve-bench: 2 clients"),
            std::string::npos);
  EXPECT_NE(result.output.find("req/s"), std::string::npos);
  EXPECT_NE(result.output.find("solver invocations"), std::string::npos);
  EXPECT_NE(result.output.find("0 failed"), std::string::npos);
}

TEST_F(CliTest, StatsSubcommandQueriesARunningServer) {
  // `ssched --serve` on an ephemeral port, stdout piped back to read the
  // port from its banner.
  int out[2];
  ASSERT_EQ(pipe(out), 0);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addclose(&actions, out[1]);
  std::vector<std::string> args = {binary_,    "--serve",   "--listen",
                                    "127.0.0.1:0", "--workers", "1"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, binary_.c_str(), &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(out[1]);
  ASSERT_EQ(spawned, 0);
  FILE* server_out = fdopen(out[0], "r");
  ASSERT_NE(server_out, nullptr);

  std::string output;
  std::array<char, 512> line;
  int port = 0;
  while (port == 0 && fgets(line.data(), line.size(), server_out) != nullptr) {
    output += line.data();
    if (std::sscanf(line.data(), "ssched serving on 127.0.0.1:%d", &port) !=
        1) {
      port = 0;
    }
  }
  CliResult stats;
  if (port != 0) {
    stats = RunCommand(binary_ + " stats 127.0.0.1:" + std::to_string(port));
  }

  // SIGINT starts a graceful drain; the server exits 0 after it.
  kill(pid, SIGINT);
  while (fgets(line.data(), line.size(), server_out) != nullptr) {
    output += line.data();
  }
  fclose(server_out);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_NE(port, 0) << output;

  EXPECT_EQ(stats.exit_code, 0) << stats.output;
  for (const char* row : {"requests", "connections accepted",
                          "protocol errors", "uptime", "conns"}) {
    EXPECT_NE(stats.output.find(row), std::string::npos)
        << row << "\n" << stats.output;
  }
  ASSERT_TRUE(WIFEXITED(status)) << output;
  EXPECT_EQ(WEXITSTATUS(status), 0) << output;
  EXPECT_NE(output.find("draining..."), std::string::npos) << output;
  EXPECT_NE(output.find("0 protocol error(s)"), std::string::npos) << output;
}

TEST_F(CliTest, VerifySubcommandAuditsSnapshots) {
  // Build a snapshot by serving a tiny problem, then audit it.
  const std::string problem_path = "test_cli_verify.ssg";
  const std::string snapshot_path = problem_path + ".sscache";
  {
    std::ofstream spec(problem_path);
    spec << "machine nodes=1 procs_per_node=2\n"
         << "comm intra_latency=5us intra_bandwidth=4000"
         << " inter_latency=30us inter_bandwidth=100\n"
         << "task src source\n"
         << "task sink\n"
         << "channel c bytes=100 producer=src consumers=sink\n"
         << "regimes 1\n"
         << "cost regime=0 task=src serial=10us\n"
         << "cost regime=0 task=sink serial=20us\n";
  }
  auto bench = RunCommand(binary_ + " " + problem_path + " --serve-bench 1");
  ASSERT_EQ(bench.exit_code, 0) << bench.output;

  auto clean = RunCommand(binary_ + " verify " + problem_path + " " +
                          snapshot_path);
  EXPECT_EQ(clean.exit_code, 0) << clean.output;
  EXPECT_NE(clean.output.find("verified"), std::string::npos);

  // Structurally corrupt the snapshot: pile every op onto proc 0 at t=0.
  // The verifier must reject it and the audit must exit nonzero.
  {
    std::ifstream in(snapshot_path);
    ASSERT_TRUE(in.good());
    std::ostringstream rewritten;
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("op ", 0) == 0) {
        long long op = 0, proc = 0, start = 0, duration = 0;
        std::istringstream ls(line.substr(3));
        ls >> op >> proc >> start >> duration;
        rewritten << "op " << op << " 0 0 " << duration << "\n";
      } else {
        rewritten << line << "\n";
      }
    }
    in.close();
    std::ofstream out(snapshot_path, std::ios::trunc);
    out << rewritten.str();
  }
  auto corrupt = RunCommand(binary_ + " verify " + problem_path + " " +
                            snapshot_path);
  EXPECT_NE(corrupt.exit_code, 0);
  EXPECT_NE(corrupt.output.find("CORRUPT_ARTIFACT"), std::string::npos)
      << corrupt.output;

  std::remove(problem_path.c_str());
  std::remove(snapshot_path.c_str());
}

TEST_F(CliTest, VerifySubcommandUsageErrors) {
  auto missing = RunCommand(binary_ + " verify only_one_arg");
  EXPECT_NE(missing.exit_code, 0);
  EXPECT_NE(missing.output.find("verify needs a problem file"),
            std::string::npos);

  auto nofile =
      RunCommand(binary_ + " verify /nonexistent.ssg /nonexistent.sscache");
  EXPECT_NE(nofile.exit_code, 0);
  EXPECT_NE(nofile.output.find("error"), std::string::npos);
}

}  // namespace
