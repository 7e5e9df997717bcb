// perfbench: open-loop benchmark of the rproxy servers over loopback TCP.
//
//   perfbench --workload <capability_reads|ledger_mix|check_clearing>
//             --seed N --seconds S --trace 0|1 --tmp-dir DIR [--scale F]
//
// Normally launched by perfbench/run.py, which builds this binary and
// reshapes the last line into the benchmark's result format.  Rates, SLOs
// and the server's worker count are fixed per workload (options_for());
// --scale < 1 shrinks the populations for smoke runs.  Prints a provenance
// line, a log on stderr, and one JSON result line last on stdout.  Exit
// codes: 0 = correct (a run whose generator fell behind is flagged
// "valid": false, not failed), 1 = correctness gate failed, 2 = bad
// arguments, 3 = not a release build.
#include <sys/statfs.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "runner.hpp"

namespace {

std::string fs_type(const std::string& dir) {
  struct statfs st {};
  if (::statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "perfbench: this binary was built without NDEBUG; numbers "
               "from a debug build are not measurements.  Configure with "
               "-DCMAKE_BUILD_TYPE=Release.\n";
  return 3;
#endif
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage("unexpected argument " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage("every option takes a value");
  for (const auto& [key, value] : args) {
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "tmp-dir" && key != "scale") {
      return usage("unknown option --" + key);
    }
  }
  perfbench::RunOptions o;
  if (!perfbench::options_for(args["workload"], o)) {
    return usage("unknown workload '" + args["workload"] + "'");
  }
  try {
    const auto num = [&](const char* k, double def) {
      auto it = args.find(k);
      return it == args.end() ? def : std::stod(it->second);
    };
    o.seed = static_cast<std::uint64_t>(num("seed", 1));
    o.seconds = num("seconds", 10);
    o.trace = num("trace", 0) != 0;
    o.scale = num("scale", 1);
  } catch (const std::exception& e) {
    return usage(std::string("bad number: ") + e.what());
  }
  o.tmp_dir = args["tmp-dir"];
  if (o.tmp_dir.empty() || o.seconds <= 0 || o.scale <= 0) {
    return usage("--tmp-dir is required; --seconds and --scale must be > 0");
  }
  std::filesystem::create_directories(o.tmp_dir);

  std::cout << "{\"provenance\": {\"workload\": \"" << o.workload
            << "\", \"seed\": " << o.seed << ", \"trace\": " << o.trace
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": \"release\""
            << ", \"compiler\": \"" << __VERSION__ << "\""
            << ", \"tmp_fs\": \"" << fs_type(o.tmp_dir) << "\""
            << ", \"server_workers\": " << o.workers
            << ", \"connections\": " << o.connections
            << ", \"light_rate\": " << o.light_rate
            << ", \"nominal_rate\": " << o.nominal_rate
            << ", \"slo_ms\": " << o.slo_ms
            << ", \"ladder_base\": " << o.ladder_base
            << ", \"late_bound_ms\": " << o.late_bound_ms << "}}\n";
  std::cout.flush();

  perfbench::RunResult result;
  try {
    result = perfbench::run_benchmark(o, std::cerr);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run aborted: " << e.what() << "\n";
    return 1;
  }
  perfbench::print_result(result, std::cout);
  return result.correct ? 0 : 1;
}
