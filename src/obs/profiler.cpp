#include "obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>

#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "runtime/task_context.h"
#include "util/check.h"
#include "util/file.h"
#include "util/hashing.h"

namespace edgestab::obs {

namespace {

/// One aggregated call-tree node. Lives in a std::deque that only grows
/// under the intern mutex, so pointers handed out to frames, caches and
/// task contexts stay valid until clear(); the per-node statistics are
/// relaxed atomics so the scope/alloc hot paths never take the mutex.
struct Node {
  Node(Node* parent_in, std::string category_in, std::string name_in)
      : parent(parent_in),
        category(std::move(category_in)),
        name(std::move(name_in)) {}

  Node* parent;
  std::string category;
  std::string name;
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> incl_ns{0};
  std::atomic<std::uint64_t> excl_ns{0};
  std::atomic<std::uint64_t> alloc_count{0};
  std::atomic<std::uint64_t> alloc_bytes{0};
  std::atomic<std::uint64_t> free_count{0};
  std::atomic<std::uint64_t> free_bytes{0};
  // Live accounting is signed: a buffer may be freed under a different
  // scope than the one that allocated it, driving one node's balance
  // negative while another's stays high. Peaks clamp at zero.
  std::atomic<std::int64_t> live_bytes{0};
  std::atomic<std::int64_t> peak_live_bytes{0};
  Histogram latency;
};

struct Frame {
  Node* node;
  std::uint64_t start_ns;
  std::uint64_t child_ns;  ///< Σ inclusive time of completed direct children
};

/// The logical scope stack of this thread. Pool worker lanes start empty
/// and fall back to t_ambient — the submitting scope propagated through
/// runtime/task_context.h — so attribution is thread-invariant.
thread_local std::vector<Frame> t_stack;
thread_local Node* t_ambient = nullptr;

/// Node interning is (mutex + map) on the slow path with a per-thread
/// cache keyed by (parent, category ptr, name ptr) — the macros pass
/// string literals, so pointer identity is a sound per-site key. clear()
/// bumps the generation, which invalidates every cache before any stale
/// Node* could be dereferenced.
std::atomic<std::uint64_t> g_generation{1};

struct InternCache {
  std::uint64_t generation = 0;
  std::map<std::tuple<Node*, const void*, const void*>, Node*> entries;
};
thread_local InternCache t_cache;

struct ProfilerState {
  std::atomic<bool> enabled{false};
  std::atomic<bool> armed{false};
  std::atomic<bool> hooks_installed{false};

  mutable std::mutex mu;  ///< guards nodes + index structure (not stats)
  std::deque<Node> nodes;
  std::map<std::tuple<Node*, std::string, std::string>, Node*> index;

  std::atomic<std::uint64_t> total_alloc_count{0};
  std::atomic<std::uint64_t> total_alloc_bytes{0};
  std::atomic<std::uint64_t> total_free_count{0};
  std::atomic<std::uint64_t> total_free_bytes{0};
  std::atomic<std::int64_t> total_live_bytes{0};
  std::atomic<std::int64_t> total_peak_live_bytes{0};
  std::atomic<std::uint64_t> site_alloc_count[kAllocSiteCount] = {};
  std::atomic<std::uint64_t> site_alloc_bytes[kAllocSiteCount] = {};
};

ProfilerState& state() {
  static ProfilerState* s = new ProfilerState();
  return *s;
}

Node* intern_slow(Node* parent, const char* category, const char* name) {
  ProfilerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  auto key = std::make_tuple(parent, std::string(category), std::string(name));
  auto it = s.index.find(key);
  if (it != s.index.end()) return it->second;
  s.nodes.emplace_back(parent, category, name);
  Node* node = &s.nodes.back();
  s.index.emplace(std::move(key), node);
  return node;
}

Node* intern(Node* parent, const char* category, const char* name) {
  InternCache& cache = t_cache;
  std::uint64_t generation = g_generation.load(std::memory_order_acquire);
  if (cache.generation != generation) {
    cache.entries.clear();
    cache.generation = generation;
  }
  auto key = std::make_tuple(parent, static_cast<const void*>(category),
                             static_cast<const void*>(name));
  auto it = cache.entries.find(key);
  if (it != cache.entries.end()) return it->second;
  Node* node = intern_slow(parent, category, name);
  cache.entries.emplace(key, node);
  return node;
}

Node* innermost() {
  return t_stack.empty() ? t_ambient : t_stack.back().node;
}

void raise_peak(std::atomic<std::int64_t>& peak, std::int64_t live) {
  std::int64_t seen = peak.load(std::memory_order_relaxed);
  while (live > seen &&
         !peak.compare_exchange_weak(seen, live, std::memory_order_relaxed)) {
  }
}

// ---- hook trampolines (installed once, on first enable) -------------------

void hook_on_alloc(AllocSite site, std::size_t bytes) {
  Profiler::global().on_alloc(site, bytes);
}

void hook_on_free(AllocSite site, std::size_t bytes) {
  Profiler::global().on_free(site, bytes);
}

void* hook_capture() { return innermost(); }

void* hook_install(void* context) {
  void* previous = t_ambient;
  t_ambient = static_cast<Node*>(context);
  return previous;
}

void hook_restore(void* previous) { t_ambient = static_cast<Node*>(previous); }

const AllocHooks kAllocHooks{&hook_on_alloc, &hook_on_free};
const runtime::TaskContextHooks kTaskHooks{&hook_capture, &hook_install,
                                           &hook_restore};

std::uint64_t digest_of(const std::vector<ProfileNode>& nodes) {
  Fingerprint fp;
  fp.add(std::string("edgestab-profile-v1"));
  fp.add(static_cast<std::uint64_t>(nodes.size()));
  for (const ProfileNode& node : nodes) {
    fp.add(node.path);
    fp.add(node.calls);
    fp.add(node.alloc_count);
    fp.add(node.alloc_bytes);
    fp.add(node.free_count);
    fp.add(node.free_bytes);
  }
  return fp.value();
}


}  // namespace

Profiler& Profiler::global() {
  static Profiler* profiler = new Profiler();
  return *profiler;
}

bool Profiler::enabled() const {
  return state().enabled.load(std::memory_order_relaxed);
}

void Profiler::set_enabled(bool enabled) {
  ProfilerState& s = state();
  if (enabled) {
    s.armed.store(true, std::memory_order_relaxed);
    // Hooks stay installed for the process lifetime once armed; they are
    // inert while enabled() is false, and never uninstalling means lanes
    // can re-read the pointer at any time without a race window.
    if (!s.hooks_installed.exchange(true)) {
      set_alloc_hooks(&kAllocHooks);
      runtime::set_task_context_hooks(&kTaskHooks);
    }
  }
  s.enabled.store(enabled, std::memory_order_relaxed);
}

bool Profiler::armed() const {
  return state().armed.load(std::memory_order_relaxed);
}

void Profiler::clear() {
  ProfilerState& s = state();
  s.enabled.store(false, std::memory_order_relaxed);
  s.armed.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(s.mu);
  ES_CHECK_MSG(t_stack.empty(),
               "Profiler::clear() with an open profile scope on this thread");
  s.index.clear();
  s.nodes.clear();
  // Invalidate every thread's intern cache before a stale Node* could be
  // looked up against the rebuilt table.
  g_generation.fetch_add(1, std::memory_order_release);
  s.total_alloc_count.store(0, std::memory_order_relaxed);
  s.total_alloc_bytes.store(0, std::memory_order_relaxed);
  s.total_free_count.store(0, std::memory_order_relaxed);
  s.total_free_bytes.store(0, std::memory_order_relaxed);
  s.total_live_bytes.store(0, std::memory_order_relaxed);
  s.total_peak_live_bytes.store(0, std::memory_order_relaxed);
  for (int i = 0; i < kAllocSiteCount; ++i) {
    s.site_alloc_count[i].store(0, std::memory_order_relaxed);
    s.site_alloc_bytes[i].store(0, std::memory_order_relaxed);
  }
}

void Profiler::begin_scope(const char* category, const char* name,
                           std::uint64_t start_ns) {
  Node* node = intern(innermost(), category, name);
  t_stack.push_back(Frame{node, start_ns, 0});
}

void Profiler::end_scope(std::uint64_t end) {
  ES_CHECK_MSG(!t_stack.empty(),
               "Profiler::end_scope() without a matching begin_scope()");
  Frame frame = t_stack.back();
  t_stack.pop_back();
  std::uint64_t duration =
      end >= frame.start_ns ? end - frame.start_ns : 0;
  // Exclusive = duration minus same-thread child time. Children executed
  // on *other* lanes (a scope that fans out to the pool) are not
  // subtracted: that wall time is genuinely attributable to the
  // dispatching scope. See the determinism notes in profiler.h.
  std::uint64_t child = std::min(frame.child_ns, duration);
  Node& node = *frame.node;
  node.calls.fetch_add(1, std::memory_order_relaxed);
  node.incl_ns.fetch_add(duration, std::memory_order_relaxed);
  node.excl_ns.fetch_add(duration - child, std::memory_order_relaxed);
  node.latency.record(duration);
  if (!t_stack.empty() && t_stack.back().node == node.parent)
    t_stack.back().child_ns += duration;
}

void Profiler::on_alloc(AllocSite site, std::size_t bytes) {
  ProfilerState& s = state();
  if (!s.enabled.load(std::memory_order_relaxed)) return;
  Node* node = innermost();
  if (node == nullptr) node = intern(nullptr, "profile", "unscoped");
  std::uint64_t b = static_cast<std::uint64_t>(bytes);
  node->alloc_count.fetch_add(1, std::memory_order_relaxed);
  node->alloc_bytes.fetch_add(b, std::memory_order_relaxed);
  std::int64_t node_live =
      node->live_bytes.fetch_add(static_cast<std::int64_t>(b),
                                 std::memory_order_relaxed) +
      static_cast<std::int64_t>(b);
  raise_peak(node->peak_live_bytes, node_live);

  s.total_alloc_count.fetch_add(1, std::memory_order_relaxed);
  s.total_alloc_bytes.fetch_add(b, std::memory_order_relaxed);
  int site_index = static_cast<int>(site);
  if (site_index >= 0 && site_index < kAllocSiteCount) {
    s.site_alloc_count[site_index].fetch_add(1, std::memory_order_relaxed);
    s.site_alloc_bytes[site_index].fetch_add(b, std::memory_order_relaxed);
  }
  std::int64_t live =
      s.total_live_bytes.fetch_add(static_cast<std::int64_t>(b),
                                   std::memory_order_relaxed) +
      static_cast<std::int64_t>(b);
  raise_peak(s.total_peak_live_bytes, live);
}

void Profiler::on_free(AllocSite site, std::size_t bytes) {
  (void)site;
  ProfilerState& s = state();
  if (!s.enabled.load(std::memory_order_relaxed)) return;
  Node* node = innermost();
  if (node == nullptr) node = intern(nullptr, "profile", "unscoped");
  std::uint64_t b = static_cast<std::uint64_t>(bytes);
  node->free_count.fetch_add(1, std::memory_order_relaxed);
  node->free_bytes.fetch_add(b, std::memory_order_relaxed);
  node->live_bytes.fetch_sub(static_cast<std::int64_t>(b),
                             std::memory_order_relaxed);
  s.total_free_count.fetch_add(1, std::memory_order_relaxed);
  s.total_free_bytes.fetch_add(b, std::memory_order_relaxed);
  s.total_live_bytes.fetch_sub(static_cast<std::int64_t>(b),
                               std::memory_order_relaxed);
}

std::vector<ProfileNode> Profiler::snapshot() const {
  ProfilerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);

  // Group children under their parents, then order every sibling list by
  // (category, name) so the emitted DFS preorder is canonical no matter
  // which lane interned which node first.
  std::vector<const Node*> roots;
  std::map<const Node*, std::vector<const Node*>> children;
  for (const Node& node : s.nodes) {
    if (node.parent == nullptr)
      roots.push_back(&node);
    else
      children[node.parent].push_back(&node);
  }
  auto label_less = [](const Node* a, const Node* b) {
    if (a->category != b->category) return a->category < b->category;
    return a->name < b->name;
  };
  std::sort(roots.begin(), roots.end(), label_less);
  for (auto& entry : children)
    std::sort(entry.second.begin(), entry.second.end(), label_less);

  std::vector<ProfileNode> out;
  out.reserve(s.nodes.size());
  struct Visit {
    const Node* node;
    int depth;
    std::string path;
  };
  std::vector<Visit> pending;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it)
    pending.push_back(
        Visit{*it, 0, (*it)->category + "." + (*it)->name});
  while (!pending.empty()) {
    Visit visit = std::move(pending.back());
    pending.pop_back();
    const Node& node = *visit.node;
    ProfileNode row;
    row.path = visit.path;
    row.category = node.category;
    row.name = node.name;
    row.depth = visit.depth;
    row.calls = node.calls.load(std::memory_order_relaxed);
    row.incl_ns = node.incl_ns.load(std::memory_order_relaxed);
    row.excl_ns = node.excl_ns.load(std::memory_order_relaxed);
    row.p50_ns = node.latency.p50();
    row.p95_ns = node.latency.p95();
    row.alloc_count = node.alloc_count.load(std::memory_order_relaxed);
    row.alloc_bytes = node.alloc_bytes.load(std::memory_order_relaxed);
    row.free_count = node.free_count.load(std::memory_order_relaxed);
    row.free_bytes = node.free_bytes.load(std::memory_order_relaxed);
    std::int64_t peak =
        node.peak_live_bytes.load(std::memory_order_relaxed);
    row.peak_live_bytes = peak > 0 ? static_cast<std::uint64_t>(peak) : 0;
    out.push_back(std::move(row));
    auto kids = children.find(visit.node);
    if (kids != children.end()) {
      for (auto it = kids->second.rbegin(); it != kids->second.rend(); ++it)
        pending.push_back(Visit{
            *it, visit.depth + 1,
            visit.path + "/" + (*it)->category + "." + (*it)->name});
    }
  }
  return out;
}

ProfileTotals Profiler::totals() const {
  ProfilerState& s = state();
  ProfileTotals totals;
  totals.alloc_count = s.total_alloc_count.load(std::memory_order_relaxed);
  totals.alloc_bytes = s.total_alloc_bytes.load(std::memory_order_relaxed);
  totals.free_count = s.total_free_count.load(std::memory_order_relaxed);
  totals.free_bytes = s.total_free_bytes.load(std::memory_order_relaxed);
  std::int64_t peak = s.total_peak_live_bytes.load(std::memory_order_relaxed);
  totals.peak_live_bytes = peak > 0 ? static_cast<std::uint64_t>(peak) : 0;
  for (int i = 0; i < kAllocSiteCount; ++i) {
    totals.site_alloc_count[i] =
        s.site_alloc_count[i].load(std::memory_order_relaxed);
    totals.site_alloc_bytes[i] =
        s.site_alloc_bytes[i].load(std::memory_order_relaxed);
  }
  return totals;
}

std::string Profiler::digest_hex() const {
  return hex_digest(digest_of(snapshot()));
}

// ---- exports --------------------------------------------------------------

std::string profile_json(const Profiler& profiler,
                         const std::string& bench_name) {
  std::vector<ProfileNode> nodes = profiler.snapshot();
  ProfileTotals totals = profiler.totals();
  double total_excl_ms = 0.0;
  double root_incl_ms = 0.0;
  for (const ProfileNode& node : nodes) {
    total_excl_ms += static_cast<double>(node.excl_ns) / 1e6;
    if (node.depth == 0)
      root_incl_ms += static_cast<double>(node.incl_ns) / 1e6;
  }

  JsonWriter w;
  w.begin_object();
  w.key("schema").value("edgestab-profile-v1");
  w.key("bench").value(bench_name);
  w.key("digest").value(hex_digest(digest_of(nodes)));
  w.key("root_incl_ms").value(root_incl_ms);
  w.key("total_excl_ms").value(total_excl_ms);
  w.key("totals").begin_object();
  w.key("alloc_count").value(totals.alloc_count);
  w.key("alloc_bytes").value(totals.alloc_bytes);
  w.key("free_count").value(totals.free_count);
  w.key("free_bytes").value(totals.free_bytes);
  w.key("peak_live_bytes").value(totals.peak_live_bytes);
  w.key("sites").begin_array();
  for (int i = 0; i < kAllocSiteCount; ++i) {
    w.begin_object();
    w.key("site").value(alloc_site_name(static_cast<AllocSite>(i)));
    w.key("alloc_count").value(totals.site_alloc_count[i]);
    w.key("alloc_bytes").value(totals.site_alloc_bytes[i]);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("nodes").begin_array();
  for (const ProfileNode& node : nodes) {
    w.begin_object();
    w.key("path").value(node.path);
    w.key("category").value(node.category);
    w.key("name").value(node.name);
    w.key("depth").value(node.depth);
    w.key("calls").value(node.calls);
    w.key("incl_ns").value(node.incl_ns);
    w.key("excl_ns").value(node.excl_ns);
    w.key("p50_ns").value(node.p50_ns);
    w.key("p95_ns").value(node.p95_ns);
    w.key("alloc_count").value(node.alloc_count);
    w.key("alloc_bytes").value(node.alloc_bytes);
    w.key("free_count").value(node.free_count);
    w.key("free_bytes").value(node.free_bytes);
    w.key("peak_live_bytes").value(node.peak_live_bytes);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

bool parse_profile(const JsonValue& doc, ProfileDoc* out, std::string* error) {
  auto fail = [error](const char* message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (!doc.is_object()) return fail("profile: document is not an object");
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != "edgestab-profile-v1")
    return fail("profile: missing or unknown schema");
  const JsonValue* nodes = doc.find("nodes");
  if (nodes == nullptr || !nodes->is_array())
    return fail("profile: missing nodes array");

  ProfileDoc parsed;
  if (const JsonValue* bench = doc.find("bench"))
    parsed.bench = bench->string_or("");
  if (const JsonValue* digest = doc.find("digest"))
    parsed.digest = digest->string_or("");
  parsed.root_incl_ms =
      doc.find("root_incl_ms") ? doc.find("root_incl_ms")->number_or(0.0) : 0.0;
  parsed.total_excl_ms = doc.find("total_excl_ms")
                             ? doc.find("total_excl_ms")->number_or(0.0)
                             : 0.0;
  if (const JsonValue* totals = doc.find("totals")) {
    if (!totals->is_object()) return fail("profile: totals is not an object");
    ProfileTotals& t = parsed.totals;
    if (!totals->read_ints<std::uint64_t>(
            {{"alloc_count", &t.alloc_count},
             {"alloc_bytes", &t.alloc_bytes},
             {"free_count", &t.free_count},
             {"free_bytes", &t.free_bytes},
             {"peak_live_bytes", &t.peak_live_bytes}},
            JsonValue::kOptional))
      return fail("profile: a totals count is not an unsigned integer");
    if (const JsonValue* sites = totals->find("sites")) {
      if (!sites->is_array()) return fail("profile: sites is not an array");
      for (const JsonValue& entry : sites->items) {
        if (!entry.is_object()) continue;
        const JsonValue* site_name = entry.find("site");
        if (site_name == nullptr || !site_name->is_string()) continue;
        for (int i = 0; i < kAllocSiteCount; ++i) {
          if (site_name->string == alloc_site_name(static_cast<AllocSite>(i))) {
            if (!entry.read_ints<std::uint64_t>(
                    {{"alloc_count", &t.site_alloc_count[i]},
                     {"alloc_bytes", &t.site_alloc_bytes[i]}},
                    JsonValue::kOptional))
              return fail("profile: a site count is not an unsigned integer");
            break;
          }
        }
      }
    }
  }
  for (const JsonValue& entry : nodes->items) {
    if (!entry.is_object()) return fail("profile: node is not an object");
    ProfileNode node;
    const JsonValue* path = entry.find("path");
    if (path == nullptr || !path->is_string())
      return fail("profile: node missing path");
    node.path = path->string;
    if (const JsonValue* category = entry.find("category"))
      node.category = category->string_or("");
    if (const JsonValue* name = entry.find("name"))
      node.name = name->string_or("");
    if (!entry.read_int("depth", &node.depth, JsonValue::kOptional) ||
        node.depth < 0 ||
        !entry.read_ints<std::uint64_t>(
            {{"calls", &node.calls},
             {"incl_ns", &node.incl_ns},
             {"excl_ns", &node.excl_ns},
             {"alloc_count", &node.alloc_count},
             {"alloc_bytes", &node.alloc_bytes},
             {"free_count", &node.free_count},
             {"free_bytes", &node.free_bytes},
             {"peak_live_bytes", &node.peak_live_bytes}},
            JsonValue::kOptional))
      return fail("profile: a node count is not an unsigned integer");
    node.p50_ns = entry.find("p50_ns") ? entry.find("p50_ns")->number_or(0.0)
                                       : 0.0;
    node.p95_ns = entry.find("p95_ns") ? entry.find("p95_ns")->number_or(0.0)
                                       : 0.0;
    parsed.nodes.push_back(std::move(node));
  }
  *out = std::move(parsed);
  return true;
}

std::string hotspot_table(const std::vector<ProfileNode>& nodes,
                          std::size_t top_n) {
  std::vector<const ProfileNode*> order;
  order.reserve(nodes.size());
  double total_excl_ns = 0.0;
  for (const ProfileNode& node : nodes) {
    order.push_back(&node);
    total_excl_ns += static_cast<double>(node.excl_ns);
  }
  std::sort(order.begin(), order.end(),
            [](const ProfileNode* a, const ProfileNode* b) {
              if (a->excl_ns != b->excl_ns) return a->excl_ns > b->excl_ns;
              return a->path < b->path;  // deterministic tie-break
            });
  if (order.size() > top_n) order.resize(top_n);

  std::string out;
  char line[512];
  std::snprintf(line, sizeof(line), "%10s %6s %10s %9s %10s %12s  %s\n",
                "excl_ms", "%", "incl_ms", "calls", "p95_ms", "alloc_kb",
                "path");
  out += line;
  for (const ProfileNode* node : order) {
    double excl_ms = static_cast<double>(node->excl_ns) / 1e6;
    double share = total_excl_ns > 0.0
                       ? 100.0 * static_cast<double>(node->excl_ns) /
                             total_excl_ns
                       : 0.0;
    std::snprintf(line, sizeof(line),
                  "%10.2f %5.1f%% %10.2f %9" PRIu64 " %10.3f %12.1f  %s\n",
                  excl_ms, share, static_cast<double>(node->incl_ns) / 1e6,
                  node->calls, node->p95_ns / 1e6,
                  static_cast<double>(node->alloc_bytes) / 1024.0,
                  node->path.c_str());
    out += line;
  }
  return out;
}

std::string profile_html(const std::vector<ProfileNode>& nodes,
                         const ProfileTotals& totals,
                         const std::string& bench_name) {
  double root_incl_ns = 0.0;
  for (const ProfileNode& node : nodes)
    if (node.depth == 0) root_incl_ns += static_cast<double>(node.incl_ns);
  if (root_incl_ns <= 0.0) root_incl_ns = 1.0;

  std::string out;
  out += "<!doctype html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n";
  out += "<title>profile: " + html_escape(bench_name) + "</title>\n";
  out +=
      "<style>\n"
      "body{font-family:monospace;background:#1b1b1f;color:#d8d8d8;"
      "margin:24px;}\n"
      "h1{font-size:18px;} .sub{color:#9a9aa0;margin-bottom:16px;}\n"
      ".row{position:relative;height:20px;margin:1px 0;}\n"
      ".bar{position:absolute;top:0;bottom:0;background:#b03a2e;"
      "border-radius:2px;min-width:2px;}\n"
      ".bar.d1{background:#ca6f1e;} .bar.d2{background:#b7950b;}\n"
      ".bar.d3{background:#1e8449;} .bar.d4{background:#2471a3;}\n"
      ".bar.d5{background:#7d3c98;}\n"
      ".lbl{position:absolute;left:4px;top:2px;font-size:12px;"
      "white-space:nowrap;color:#f4f4f4;text-shadow:0 0 3px #000;}\n"
      "table{border-collapse:collapse;margin-top:20px;font-size:12px;}\n"
      "td,th{border:1px solid #3a3a40;padding:3px 8px;text-align:right;}\n"
      "td.p,th.p{text-align:left;}\n"
      "</style>\n</head>\n<body>\n";
  out += "<h1>profile: " + html_escape(bench_name) + "</h1>\n";
  {
    char sub[256];
    std::snprintf(sub, sizeof(sub),
                  "<div class=\"sub\">allocs %" PRIu64 " (%.1f MiB), frees %"
                  PRIu64 ", peak live %.1f MiB</div>\n",
                  totals.alloc_count,
                  static_cast<double>(totals.alloc_bytes) / (1024.0 * 1024.0),
                  totals.free_count,
                  static_cast<double>(totals.peak_live_bytes) /
                      (1024.0 * 1024.0));
    out += sub;
  }

  // Icicle view: one bar per aggregated node, width = inclusive share of
  // the root total, indent = tree depth. DFS preorder keeps parents
  // directly above their children.
  for (const ProfileNode& node : nodes) {
    double width =
        100.0 * static_cast<double>(node.incl_ns) / root_incl_ns;
    if (width > 100.0) width = 100.0;
    double left = 2.0 * static_cast<double>(node.depth);
    if (width > 100.0 - left) width = 100.0 - left;
    int color = node.depth % 6;
    char row[768];
    std::snprintf(
        row, sizeof(row),
        "<div class=\"row\"><div class=\"bar d%d\" style=\"left:%.1f%%;"
        "width:%.2f%%\" title=\"%s — incl %.2f ms, excl %.2f ms, "
        "calls %" PRIu64 ", alloc %" PRIu64 " (%.1f KiB)\"></div>"
        "<div class=\"lbl\" style=\"left:%.1f%%\">%s</div></div>\n",
        color, left, width, html_escape(node.path).c_str(),
        static_cast<double>(node.incl_ns) / 1e6,
        static_cast<double>(node.excl_ns) / 1e6, node.calls,
        node.alloc_count, static_cast<double>(node.alloc_bytes) / 1024.0,
        left, html_escape(node.category + "." + node.name).c_str());
    out += row;
  }

  out +=
      "<table>\n<tr><th class=\"p\">path</th><th>calls</th><th>incl ms</th>"
      "<th>excl ms</th><th>p50 ms</th><th>p95 ms</th><th>allocs</th>"
      "<th>alloc KiB</th><th>peak live KiB</th></tr>\n";
  for (const ProfileNode& node : nodes) {
    char row[768];
    std::snprintf(row, sizeof(row),
                  "<tr><td class=\"p\">%s</td><td>%" PRIu64
                  "</td><td>%.2f</td><td>%.2f</td><td>%.3f</td><td>%.3f</td>"
                  "<td>%" PRIu64 "</td><td>%.1f</td><td>%.1f</td></tr>\n",
                  html_escape(node.path).c_str(), node.calls,
                  static_cast<double>(node.incl_ns) / 1e6,
                  static_cast<double>(node.excl_ns) / 1e6, node.p50_ns / 1e6,
                  node.p95_ns / 1e6, node.alloc_count,
                  static_cast<double>(node.alloc_bytes) / 1024.0,
                  static_cast<double>(node.peak_live_bytes) / 1024.0);
    out += row;
  }
  out += "</table>\n</body>\n</html>\n";
  return out;
}

bool write_profile_report(const Profiler& profiler,
                          const std::string& bench_name,
                          const std::string& dir, RunManifest* manifest) {
  std::vector<ProfileNode> nodes = profiler.snapshot();
  ProfileTotals totals = profiler.totals();

  std::string json_file = bench_name + ".profile.json";
  std::string html_file = bench_name + ".profile.html";
  std::string json_path = dir + "/" + json_file;
  std::string html_path = dir + "/" + html_file;
  bool ok = write_file_logged(json_path, profile_json(profiler, bench_name),
                              "[profile]");
  ok = write_file_logged(html_path, profile_html(nodes, totals, bench_name),
                         "[profile]") &&
       ok;

  std::string table = hotspot_table(nodes);
  std::printf("[profile] %s hotspots (by exclusive time):\n%s", bench_name.c_str(),
              table.c_str());
  std::printf("[profile] allocs %" PRIu64 " (%.1f MiB), peak live %.1f MiB; "
              "report: %s\n",
              totals.alloc_count,
              static_cast<double>(totals.alloc_bytes) / (1024.0 * 1024.0),
              static_cast<double>(totals.peak_live_bytes) / (1024.0 * 1024.0),
              html_path.c_str());

  if (manifest != nullptr) {
    manifest->add_artifact(json_file);
    manifest->add_artifact(html_file);
    // String field, not a manifest digest: the digest is sensitive to the
    // executed code path (e.g. model-cache cold vs warm), so it must not
    // become a hard-equality baseline metric; profile.json carries it for
    // the thread-invariance checks.
    manifest->set_field("profile_digest", hex_digest(digest_of(nodes)));
    manifest->set_field("profile_alloc_count",
                        static_cast<double>(totals.alloc_count));
    manifest->set_field("profile_alloc_bytes",
                        static_cast<double>(totals.alloc_bytes));
    manifest->set_field("profile_peak_live_bytes",
                        static_cast<double>(totals.peak_live_bytes));
  }
  return ok;
}

}  // namespace edgestab::obs
