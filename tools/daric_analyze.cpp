// Static script/transaction analyzer CI gate.
//
// Enumerates every transaction template the six channel engines (daric,
// lightning, eltoo, generalized, cerberus, fppw) can emit for the bounded
// model's state schedule, then proves each witness script sound by
// exhaustive symbolic execution and cross-checks each template's timelocks,
// sighash flags and value balance (lint catalogue DA001..DA017, see
// src/analyze/lints.h). With --graph it additionally builds the
// whole-protocol spend graph, runs the knowledge-based authorization
// analysis (DA023..DA028, src/analyze/auth.h) and the reachability/race
// analysis (DA018..DA022, src/analyze/reach.h), reporting each engine's
// concrete Theorem-1 punish-confirmation bound against the limit T−Δ.
// --auth additionally prints, per engine, the exact principal set able to
// satisfy every spend-graph edge at the analysis time.
//
// Usage:
//   daric_analyze [--engine NAME] [--suppress DA001,DA007] [--updates N]
//                 [--tpunish T] [--delta D] [--graph] [--auth] [--dot FILE]
//                 [--json FILE] [--list] [--quiet]
//
// Exit status: 0 = no unsuppressed errors, 1 = errors found, 2 = bad usage.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analyze/auth.h"
#include "src/analyze/engines.h"
#include "src/analyze/graph.h"
#include "src/analyze/lints.h"
#include "src/analyze/reach.h"
#include "src/analyze/report.h"
#include "src/channel/registry.h"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--engine %s]\n"
               "          [--suppress DAxxx[,DAxxx...]] [--updates N] [--tpunish T]\n"
               "          [--delta D] [--graph] [--auth] [--dot FILE] [--json FILE]\n"
               "          [--list] [--quiet]\n",
               argv0, daric::channel::engine_choices().c_str());
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string json_principals(const daric::analyze::PrincipalSet& s) {
  using daric::analyze::Principal;
  std::string out = "[";
  for (Principal p : {Principal::kPartyP, Principal::kPartyQ, Principal::kTower,
                      Principal::kAdversary, Principal::kAnyone}) {
    if (!s.has(p)) continue;
    if (out.size() > 1) out += ", ";
    out += '"';
    out += daric::analyze::principal_name(p);
    out += '"';
  }
  return out + "]";
}

std::string edge_source(const daric::analyze::SpendGraph& g,
                        const daric::analyze::SpendGraph::Edge& e) {
  const auto& node = g.outputs[static_cast<std::size_t>(e.source)];
  if (node.producer < 0) return "root.out" + std::to_string(node.vout);
  return g.tmpl(node.producer).label() + ".out" + std::to_string(node.vout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace daric;

  verify::Options model;  // defaults: Δ=1, T=3, 3 updates
  std::vector<std::string> engines = channel::engine_names();
  analyze::Report report;
  bool quiet = false;
  bool graph = false;
  bool auth_report = false;
  std::string dot_path, json_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--engine") {
      engines = {next()};
    } else if (arg == "--suppress") {
      for (const std::string& id : split_commas(next())) {
        bool known = false;
        for (const analyze::Lint& l : analyze::lint_catalogue())
          if (id == l.id) {
            known = true;
            break;
          }
        if (!known) {
          std::fprintf(stderr, "daric_analyze: unknown lint id '%s' (see --list)\n",
                       id.c_str());
          return 2;
        }
        report.suppress(id);
      }
    } else if (arg == "--updates") {
      model.max_updates = std::atoi(next());
    } else if (arg == "--tpunish") {
      model.t_punish = std::atol(next());
    } else if (arg == "--delta") {
      model.delta = std::atol(next());
    } else if (arg == "--graph") {
      graph = true;
    } else if (arg == "--auth") {
      graph = true;
      auth_report = true;
    } else if (arg == "--dot") {
      graph = true;
      dot_path = next();
    } else if (arg == "--json") {
      graph = true;
      json_path = next();
    } else if (arg == "--list") {
      for (const analyze::Lint& l : analyze::lint_catalogue())
        std::printf("%s  %-7s  %s\n", l.id, analyze::severity_name(l.severity), l.title);
      return 0;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      usage(argv[0]);
      return 2;
    }
  }

  const channel::ChannelParams params = analyze::params_for_model(model);
  std::size_t total_templates = 0;
  std::vector<analyze::ReachReport> bounds;
  std::vector<std::string> auth_json;  // one pre-rendered object per engine
  std::ofstream dot_out;
  if (!dot_path.empty()) {
    dot_out.open(dot_path);
    if (!dot_out) {
      std::fprintf(stderr, "daric_analyze: cannot write %s\n", dot_path.c_str());
      return 2;
    }
  }

  for (const std::string& engine : engines) {
    std::vector<analyze::TxTemplate> templates;
    analyze::KnowledgeBase kb;
    try {
      templates = analyze::engine_templates(engine, params, model,
                                            graph ? &kb : nullptr);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "daric_analyze: %s\n", e.what());
      return 2;
    }
    total_templates += templates.size();
    analyze::lint_templates(templates, report);
    if (!quiet)
      std::printf("daric_analyze: %-12s %3zu templates\n", engine.c_str(),
                  templates.size());
    if (graph) {
      const analyze::SpendGraph g = analyze::build_spend_graph(std::move(templates));
      const analyze::AuthParams ap{model.delta, model.t_punish, -1};
      const analyze::AuthReport auth = analyze::analyze_authorization(g, kb, ap, report);
      const analyze::ReachParams rp{model.delta, model.t_punish};
      bounds.push_back(analyze::analyze_reachability(g, rp, report, &auth));
      const analyze::ReachReport& r = bounds.back();

      if (auth_report && !quiet) {
        std::printf("daric_analyze: %-12s auth: now=%d, %zu satisfiable edges\n",
                    engine.c_str(), auth.now,
                    static_cast<std::size_t>(std::count_if(
                        g.edges.begin(), g.edges.end(),
                        [](const analyze::SpendGraph::Edge& e) { return e.satisfiable; })));
        for (std::size_t ei = 0; ei < g.edges.size(); ++ei) {
          const analyze::SpendGraph::Edge& e = g.edges[ei];
          if (!e.satisfiable) continue;
          std::printf("  %s <- %s: %s\n",
                      (g.tmpl(e.spender).label() + "#in" + std::to_string(e.input)).c_str(),
                      edge_source(g, e).c_str(),
                      auth.edges[ei].authorized.render().c_str());
        }
        for (const analyze::LatestPath& lp : auth.latest_paths) {
          std::printf("  latest %s %s: %s\n", lp.where.c_str(),
                      lp.covered ? "[covered]" : "[uncovered]",
                      lp.principals.render().c_str());
        }
      }

      {
        std::ostringstream a;
        a << "{\"engine\": \"" << auth.engine << "\", \"now\": " << auth.now
          << ", \"edges\": " << auth.edges.size() << ", \"spenders\": [";
        bool first = true;
        for (std::size_t ei = 0; ei < g.edges.size(); ++ei) {
          const analyze::SpendGraph::Edge& e = g.edges[ei];
          if (!e.satisfiable) continue;
          a << (first ? "" : ", ") << "{\"edge\": \""
            << json_escape(g.tmpl(e.spender).label() + "#in" + std::to_string(e.input))
            << "\", \"source\": \"" << json_escape(edge_source(g, e))
            << "\", \"principals\": " << json_principals(auth.edges[ei].authorized)
            << "}";
          first = false;
        }
        a << "], \"latest_paths\": [";
        for (std::size_t li = 0; li < auth.latest_paths.size(); ++li) {
          const analyze::LatestPath& lp = auth.latest_paths[li];
          a << (li ? ", " : "") << "{\"where\": \"" << json_escape(lp.where)
            << "\", \"covered\": " << (lp.covered ? "true" : "false")
            << ", \"principals\": " << json_principals(lp.principals) << "}";
        }
        a << "]}";
        auth_json.push_back(a.str());
      }
      if (!quiet) {
        std::printf(
            "daric_analyze: %-12s graph: %zu outputs, %zu edges, %zu roots; "
            "%zu stale commits, %zu/%zu races won; theorem1 bound %lld <= %lld\n",
            engine.c_str(), g.outputs.size(), g.edges.size(), g.root_count(),
            r.stale_commits, r.races_won(), r.races.size(),
            static_cast<long long>(r.theorem1_bound),
            static_cast<long long>(r.bound_limit));
      }
      if (dot_out.is_open()) dot_out << analyze::to_dot(g);
    }
  }

  if (!json_path.empty()) {
    std::ofstream js(json_path);
    if (!js) {
      std::fprintf(stderr, "daric_analyze: cannot write %s\n", json_path.c_str());
      return 2;
    }
    js << "{\n  \"params\": {\"delta\": " << model.delta
       << ", \"t_punish\": " << model.t_punish
       << ", \"max_updates\": " << model.max_updates << "},\n  \"engines\": [";
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      const analyze::ReachReport& r = bounds[i];
      js << (i ? ",\n    " : "\n    ") << "{\"engine\": \"" << r.engine
         << "\", \"templates\": " << r.templates
         << ", \"stale_commits\": " << r.stale_commits
         << ", \"races\": " << r.races.size()
         << ", \"races_won\": " << r.races_won()
         << ", \"theorem1_bound\": " << r.theorem1_bound
         << ", \"bound_limit\": " << r.bound_limit << ", \"punish_reachable\": "
         << (r.punish_reachable ? "true" : "false") << "}";
    }
    js << "\n  ],\n  \"auth\": [";
    for (std::size_t i = 0; i < auth_json.size(); ++i)
      js << (i ? ",\n    " : "\n    ") << auth_json[i];
    js << (auth_json.empty() ? "" : "\n  ") << "],\n  \"findings\": [";
    const auto& fs = report.findings();
    for (std::size_t i = 0; i < fs.size(); ++i) {
      js << (i ? ",\n    " : "\n    ") << "{\"id\": \"" << fs[i].id
         << "\", \"severity\": \"" << analyze::severity_name(fs[i].severity)
         << "\", \"where\": \"" << json_escape(fs[i].where)
         << "\", \"message\": \"" << json_escape(fs[i].message) << "\"";
      if (!fs[i].principals.empty())
        js << ", \"principals\": \"" << json_escape(fs[i].principals) << "\"";
      js << "}";
    }
    js << (fs.empty() ? "" : "\n  ") << "],\n  \"errors\": " << report.error_count()
       << ",\n  \"warnings\": " << report.warning_count() << "\n}\n";
  }

  if (!quiet && !report.findings().empty()) std::printf("%s", report.render().c_str());
  std::printf("daric_analyze: %zu templates, %zu errors, %zu warnings\n", total_templates,
              report.error_count(), report.warning_count());
  return report.has_errors() ? 1 : 0;
}
