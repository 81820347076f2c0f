// Scheme explorer: parse a communication scheme written in the description
// language (§IV-B), analyze its conflicts, print model penalties, and
// optionally emit Graphviz.
//
//   $ ./scheme_explorer my.scheme [--model myrinet] [--dot]
//   $ ./scheme_explorer            # uses a built-in demo scheme
#include <iostream>

#include "graph/conflict.hpp"
#include "graph/dot.hpp"
#include "graph/scheme_parser.hpp"
#include "models/registry.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

constexpr const char* kDemoScheme = R"(# fig-5 demo scheme
scheme "fig5 demo"
size 20M
comm a 0 -> 1
comm b 0 -> 2
comm c 0 -> 3
comm d 4 -> 1
comm e 2 -> 1
comm f 2 -> 5
)";

}  // namespace

int main(int argc, char** argv) try {
  using namespace bwshare;
  const CliArgs args(argc, argv);

  graph::ParsedScheme parsed;
  if (!args.positional().empty()) {
    parsed = graph::parse_scheme_file(args.positional()[0]);
  } else {
    parsed = graph::parse_scheme(kDemoScheme);
    std::cout << "(no scheme file given; using the built-in fig-5 demo)\n";
  }
  const auto& g = parsed.graph;
  std::cout << "scheme \"" << parsed.name << "\": " << g.size()
            << " communications over " << g.num_nodes() << " nodes\n\n";

  const auto conflicts = graph::classify_conflicts(g);
  const auto model = models::make_model(args.get("model", "myrinet"));
  const auto penalties = model->penalties(g);

  TextTable table({"comm", "arc", "size", "delta_o", "delta_i",
                   "conflict", strformat("penalty (%s)", model->name().c_str())});
  for (graph::CommId i = 0; i < g.size(); ++i) {
    const auto& c = g.comm(i);
    table.add_row({std::string(g.label(i)), strformat("%d->%d", c.src, c.dst),
                   human_bytes(c.bytes), strformat("%d", g.delta_o(i)),
                   strformat("%d", g.delta_i(i)),
                   to_string(conflicts[static_cast<size_t>(i)].dominant()),
                   strformat("%.2f", penalties[static_cast<size_t>(i)])});
  }
  std::cout << table.render();

  if (args.get_bool("dot", false)) {
    std::map<std::string, std::string> notes;
    for (graph::CommId i = 0; i < g.size(); ++i)
      notes[std::string(g.label(i))] =
          strformat("p=%.2f", penalties[static_cast<size_t>(i)]);
    std::cout << "\n" << graph::to_dot(g, notes);
  }
  return 0;
} catch (const bwshare::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
