// mknotice: generates specialized NOTICE macros from a sensor spec file.
//
// Spec file: one sensor per line, "name id type,type,... [description]",
// e.g.
//   net_send  10  i32,u64,ts    bytes-queued
//   req_done  11  reason,i32
//
// Usage: mknotice --spec sensors.spec --out my_notices.hpp [--guard NAME]
#include <cstdio>
#include <fstream>
#include <sstream>

#include "apps/flag_parser.hpp"
#include "mknotice/generator.hpp"

int main(int argc, char** argv) {
  using namespace brisk;
  apps::FlagRegistry flags("mknotice",
                           "generates specialized NOTICE macros from a sensor spec file");
  flags.add_string("spec", "", "sensor spec file to read")
      .add_string("out", "", "header file to write")
      .add_string("guard", "BRISK_GENERATED_NOTICES_HPP", "include guard of the generated header");
  flags.parse(argc, argv);
  const std::string spec_path = flags.str("spec");
  const std::string out_path = flags.str("out");
  const std::string guard = flags.str("guard");

  if (spec_path.empty() || out_path.empty()) {
    std::fprintf(stderr, "usage: mknotice --spec <file> --out <header> [--guard NAME]\n");
    return 2;
  }

  std::ifstream in(spec_path);
  if (!in) {
    std::fprintf(stderr, "mknotice: cannot open %s\n", spec_path.c_str());
    return 1;
  }
  std::ostringstream content;
  content << in.rdbuf();

  auto specs = tools::parse_spec_file(content.str());
  if (!specs) {
    std::fprintf(stderr, "mknotice: %s\n", specs.status().to_string().c_str());
    return 1;
  }
  auto header = tools::generate_header(specs.value(), guard);
  if (!header) {
    std::fprintf(stderr, "mknotice: %s\n", header.status().to_string().c_str());
    return 1;
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "mknotice: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << header.value();
  std::printf("mknotice: wrote %zu sensors to %s\n", specs.value().size(), out_path.c_str());
  return 0;
}
