// End-to-end checks of the built hetsched_cli binary.
//
// `scenario` has one body for plain and checkpointed runs: on each smoke
// scenario both modes must write the committed windows golden and print
// the same summary (apart from the checkpoint-count line and the echoed
// output paths) as a run without output flags, and the checkpointed
// deterministic report must equal the committed report golden. `run` is
// a flag-built scenario: it prints and writes exactly what `scenario`
// does on the equivalent scenario file. `compare` prints the committed
// Figure-6-style table. Flags that would produce nothing are usage
// errors (exit 2), raised before any setup.
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
  const std::string cache = dir + "/never.cache";
  const std::string report = dir + "/never.json";
  const std::string windows = dir + "/never.jsonl";

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

  // A flag scenario that describes nothing fails before characterisation,
  // so no profile cache is written.
  for (const char* flag : {"--system bogus", "--discipline bogus"}) {
    EXPECT_EQ(run_cli("run --arrivals 10 " + std::string(flag) +
                          " --profile-cache '" + cache + "'",
                      dir)
                  .status,
              2)
        << flag;
  }
  EXPECT_FALSE(std::filesystem::exists(cache));
  // compare writes no report and no windows.
  EXPECT_EQ(run_cli("compare --arrivals 10 --report-out '" + report +
                        "' --windows-out '" + windows + "'",
                    dir)
                .status,
            2);
  EXPECT_FALSE(std::filesystem::exists(report));
  EXPECT_FALSE(std::filesystem::exists(windows));
  // scenario and sweep read their scenario from --file; the flags that
  // build run's scenario would be silently ignored there.
  for (const char* flag :
       {"--system base", "--arrivals 10", "--gap 100", "--seed 5",
        "--cores 8", "--scale 0.5", "--discipline edf", "--slack 2",
        "--fault-plan plan.txt", "--fault-rate 0.1", "--fault-seed 3",
        "--load predictor.txt"}) {
    for (const char* command : {"scenario ", "sweep "}) {
      EXPECT_EQ(run_cli(command + scn + " " + flag, dir).status, 2)
          << command << flag;
    }
  }
}

// The scenario file a `run` flag set describes.
struct FlagScenario {
  std::string name;
  std::string run_flags;
  std::string scn;
};

void PrintTo(const FlagScenario& param, std::ostream* out) {
  *out << param.name;
}

class CliRunFlags : public testing::TestWithParam<FlagScenario> {};

// `run` builds an in-memory scenario from its flags and runs it through
// `scenario`'s body: stdout, windows JSONL and the deterministic report
// match the equivalent scenario file byte for byte (same output paths,
// so the echo lines match too). With --load, stdout gains the load line
// and the report's runtime pool counters lack the training the file's
// run does.
TEST_P(CliRunFlags, MatchesTheEquivalentScenarioFile) {
  const FlagScenario& param = GetParam();
  const std::string dir = output_dir("run_" + param.name);
  const std::string scn = dir + "/flags.scn";
  {
    std::ofstream out(scn);
    out << param.scn;
  }
  const std::string outputs = " --report-deterministic --windows-out '" +
                              dir + "/windows.jsonl' --report-out '" + dir +
                              "/report.json'";
  std::string run_flags = param.run_flags;
  std::string loaded;
  if (param.name == "load") {
    // A snapshot of the predictor the scenario file trains (same suite,
    // seed and ensemble) predicts bit-identically in its place.
    const std::string predictor = dir + "/predictor.txt";
    ASSERT_EQ(run_cli("train --scale 0.25 --save '" + predictor + "'", dir)
                  .status,
              0)
        << slurp(dir + "/stderr.txt");
    run_flags += " --load '" + predictor + "'";
    loaded = "loaded predictor snapshot (30 nets) from " + predictor + "\n";
  }

  const CliRun run = run_cli("run " + run_flags + outputs, dir);
  ASSERT_EQ(run.status, 0) << slurp(dir + "/stderr.txt");
  const std::string run_windows = slurp(dir + "/windows.jsonl");
  const std::string run_report = slurp(dir + "/report.json");
  const CliRun file = run_cli("scenario --file '" + scn + "'" + outputs, dir);
  ASSERT_EQ(file.status, 0) << slurp(dir + "/stderr.txt");

  EXPECT_NE(file.out.find("stream: "), std::string::npos);
  EXPECT_EQ(run.out, loaded + file.out);
  ASSERT_FALSE(run_windows.empty());
  EXPECT_EQ(run_windows, slurp(dir + "/windows.jsonl"));
  EXPECT_NE(run_report.find("\"command\": \"scenario\""),
            std::string::npos);
  if (loaded.empty()) {
    EXPECT_EQ(run_report, slurp(dir + "/report.json"));
  } else {
    // The runtime pool counters count the training the snapshot
    // replaced; every other line matches.
    const auto without_pool = [](const std::string& text) {
      std::istringstream in(text);
      std::string kept;
      for (std::string line; std::getline(in, line);) {
        if (line.find("\"pool.") == std::string::npos) kept += line + "\n";
      }
      return kept;
    };
    EXPECT_EQ(without_pool(run_report),
              without_pool(slurp(dir + "/report.json")));
  }
}

INSTANTIATE_TEST_SUITE_P(
    FlagSets, CliRunFlags,
    testing::Values(
        // The scaled machine with deadlines, priorities and uniform
        // faults, loaded enough that the queue order matters.
        FlagScenario{"scaled",
                     "--system portfolio:optimal+sjf --cores 6 "
                     "--discipline priority --slack 2.5 --fault-rate 0.05 "
                     "--fault-seed 7 --arrivals 300 --gap 10000 "
                     "--scale 0.25",
                     "name portfolio:optimal+sjf\n"
                     "system scaled\n"
                     "cores 6\n"
                     "policy portfolio:optimal+sjf\n"
                     "discipline priority\n"
                     "jobs 300\n"
                     "mean-gap 10000\n"
                     "kernel-scale 0.25\n"
                     "slack 2.5\n"
                     "priority-levels 3\n"
                     "fault-rate 0.05\n"
                     "fault-seed 7\n"},
        // The paper machine with a loaded predictor.
        FlagScenario{"load", "--system proposed --arrivals 300 --scale 0.25",
                     "name proposed\n"
                     "system paper\n"
                     "cores 4\n"
                     "policy proposed\n"
                     "jobs 300\n"
                     "kernel-scale 0.25\n"}),
    [](const testing::TestParamInfo<FlagScenario>& param_info) {
      return param_info.param.name;
    });

// `compare` runs the four Section-V systems as a one-row grid of the
// flag scenario and prints the normalised table.
TEST(CliCompare, MatchesTheGolden) {
  const std::string dir = output_dir("compare");
  const CliRun compare = run_cli("compare --arrivals 300 --scale 0.25", dir);
  ASSERT_EQ(compare.status, 0) << slurp(dir + "/stderr.txt");
  EXPECT_EQ(compare.out,
            "normalised to the base system (300 arrivals, seed 42):\n"
            "+----------------+------+---------+-------+--------+\n"
            "| system         | idle | dynamic | total | cycles |\n"
            "+----------------+------+---------+-------+--------+\n"
            "| base           | 1.00 |    1.00 |  1.00 |   1.00 |\n"
            "| optimal        | 0.91 |    0.46 |  0.88 |   1.11 |\n"
            "| energy-centric | 0.92 |    0.37 |  0.88 |   1.05 |\n"
            "| proposed       | 0.92 |    0.37 |  0.88 |   1.06 |\n"
            "+----------------+------+---------+-------+--------+\n");
}

}  // namespace
