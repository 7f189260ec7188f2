// End-to-end checks of the built hetsched_cli binary.
//
// `scenario` has one body for plain and checkpointed runs: on each smoke
// scenario both modes must write the committed windows golden and print
// the same summary (apart from the checkpoint-count line and the echoed
// output paths) as a run without output flags, and the checkpointed
// deterministic report must equal the committed report golden. Checkpoint flags that would produce nothing
// are usage errors (exit 2).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

namespace {

const std::string kScenarios =
    std::string(HETSCHED_SOURCE_DIR) + "/examples/scenarios/";

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// A fresh directory for one test's outputs.
std::string output_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / ("hetsched_cli_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

struct CliRun {
  int status = -1;
  std::string out;  // stdout
};

// Runs the CLI with `args` (already shell-quoted where needed), capturing
// stdout and stderr under `dir`.
CliRun run_cli(const std::string& args, const std::string& dir) {
  const std::string out_path = dir + "/stdout.txt";
  const std::string command = "'" + std::string(HETSCHED_CLI) + "' " + args +
                              " > '" + out_path + "' 2> '" + dir +
                              "/stderr.txt'";
  const int raw = std::system(command.c_str());
  CliRun run;
  run.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  run.out = slurp(out_path);
  return run;
}

// stdout without the checkpoint-count line and with the echoed output
// paths cut off ("windows written to "); with `echoes` false the echo
// lines are dropped too.
std::string comparable_stdout(const std::string& out, bool echoes = true) {
  constexpr std::string_view kWrittenTo = " written to ";
  std::istringstream in(out);
  std::string kept;
  for (std::string line; std::getline(in, line);) {
    const std::size_t at = line.find(kWrittenTo);
    if (at != std::string::npos) {
      if (!echoes || line.find(" checkpoint(s)") != std::string::npos) {
        continue;
      }
      line.resize(at + kWrittenTo.size());
    }
    kept += line + "\n";
  }
  return kept;
}

class CliScenario : public testing::TestWithParam<const char*> {};

TEST_P(CliScenario, PlainAndCheckpointedRunsMatchTheGoldens) {
  const std::string name = GetParam();
  const std::string scn = kScenarios + name + ".scn";
  const std::string dir = output_dir(name);
  const std::string outputs = " --report-deterministic --windows-out '" +
                              dir + "/windows.jsonl' --report-out '" + dir +
                              "/report.json'";

  const CliRun plain = run_cli("scenario --file '" + scn + "'" + outputs, dir);
  ASSERT_EQ(plain.status, 0) << slurp(dir + "/stderr.txt");
  const std::string plain_windows = slurp(dir + "/windows.jsonl");

  const CliRun checkpointed =
      run_cli("scenario --file '" + scn + "' --checkpoint-out '" + dir +
                  "/run.ckpt'" + outputs,
              dir);
  ASSERT_EQ(checkpointed.status, 0) << slurp(dir + "/stderr.txt");

  const std::string golden_windows = slurp(kScenarios + name +
                                           ".windows.jsonl");
  ASSERT_FALSE(golden_windows.empty());
  EXPECT_EQ(plain_windows, golden_windows);
  EXPECT_EQ(slurp(dir + "/windows.jsonl"), golden_windows);
  const std::string golden_report = kScenarios + name + ".report.json";
  if (std::filesystem::exists(golden_report)) {
    EXPECT_EQ(slurp(dir + "/report.json"), slurp(golden_report));
  }
  EXPECT_NE(plain.out.find("stream: "), std::string::npos);
  EXPECT_EQ(comparable_stdout(checkpointed.out),
            comparable_stdout(plain.out));

  // Without output flags the plain streaming driver runs; it prints the
  // same summary as the observed driver.
  const CliRun bare = run_cli("scenario --file '" + scn + "'", dir);
  ASSERT_EQ(bare.status, 0) << slurp(dir + "/stderr.txt");
  EXPECT_EQ(bare.out, comparable_stdout(plain.out, false));
}

INSTANTIATE_TEST_SUITE_P(
    Smoke, CliScenario,
    testing::Values("streaming_smoke", "portfolio_smoke", "dag_smoke"),
    [](const testing::TestParamInfo<const char*>& param_info) {
      return std::string(param_info.param);
    });

TEST(CliCheckpointFlags, RejectedWhenTheyProduceNothing) {
  const std::string dir = output_dir("rejected");
  const std::string scn = "--file '" + kScenarios + "streaming_smoke.scn'";
  const std::string ckpt = dir + "/never.ckpt";

  // A halt without a checkpoint file would leave nothing to resume from.
  EXPECT_EQ(run_cli("scenario " + scn + " --halt-after-checkpoints 2", dir)
                .status,
            2);
  EXPECT_EQ(run_cli("scenario " + scn + " --checkpoint-every 2", dir).status,
            2);
  // Only scenario writes checkpoints.
  EXPECT_EQ(
      run_cli("sweep " + scn + " --checkpoint-out '" + ckpt + "'", dir)
          .status,
      2);
  EXPECT_EQ(run_cli("run --arrivals 10 --checkpoint-every 2", dir).status, 2);
  EXPECT_EQ(run_cli("compare --arrivals 10 --halt-after-checkpoints 1 "
                    "--checkpoint-out '" + ckpt + "'",
                    dir)
                .status,
            2);
  EXPECT_FALSE(std::filesystem::exists(ckpt));
}

}  // namespace
