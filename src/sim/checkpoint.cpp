#include "src/sim/checkpoint.hpp"

#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "src/sim/campaign_axes.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/error.hpp"
#include "src/stats/text_codec.hpp"

namespace anonpath::sim {

namespace {

constexpr char magic[] = "anonpath-checkpoint";

using stats::put_hex_double;

/// Doubles travel as IEEE-754 bit patterns, exactly as in trace v1: bit
/// round-trips and deterministic rendering are what make a resumed CSV
/// byte-identical to an uninterrupted one.
void put_summary(std::ostream& os, const stats::running_summary& s) {
  os << ' ' << s.count();
  for (double x : {s.mean(), s.m2(), s.min(), s.max()}) put_hex_double(os, x);
}

[[noreturn]] void bad(parse_error_kind kind, const std::string& what) {
  throw parse_error(kind, "checkpoint", what);
}

/// what() without its "<source>: " prefix.
std::string detail_of(const parse_error& e) {
  return std::string(e.what()).substr(e.source().size() + 2);
}

std::vector<std::string> read_lines(std::istream& is) {
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

stats::running_summary read_summary(stats::token_reader& in) {
  const std::uint64_t n = in.u64("summary count");
  double words[4];
  for (double& w : words) w = in.hex_double("summary word");
  return stats::running_summary::restore(n, words[0], words[1], words[2],
                                         words[3]);
}

/// Parses one `cell` record line, whose index must be `expected_index`.
campaign_cell read_cell_record(const std::string& line,
                               std::uint64_t expected_index) {
  std::istringstream ss(line);
  stats::token_reader in(ss, "checkpoint");
  in.expect("cell");
  if (in.u64("cell index") != expected_index)
    in.fail(parse_error_kind::malformed,
            "cell index is not " + std::to_string(expected_index));
  campaign_cell cell;
  cell.replicas = in.u32("replicas");
  cell.submitted = in.u64("submitted");
  cell.delivered = in.u64("delivered");
  for (stats::running_summary* s :
       {&cell.delivered_fraction, &cell.latency_seconds, &cell.hops,
        &cell.entropy_bits, &cell.identified_fraction, &cell.top1_accuracy,
        &cell.attack_entropy_bits, &cell.attack_identified,
        &cell.rounds_to_identify, &cell.retransmit_rate})
    *s = read_summary(in);
  if (in.u64("error flag", 1) == 1) {
    std::getline(ss, cell.error);
    if (!cell.error.empty() && cell.error.front() == ' ')
      cell.error.erase(cell.error.begin());
    if (cell.error.empty())
      in.fail(parse_error_kind::truncated, "error record without text");
  }
  return cell;
}

/// The cell records lines[first..] of shard `shard_index` of `shard_count`
/// (the whole grid for 0 of 1): record k must carry absolute index
/// shard_index + k * shard_count, and at most max_cells may appear. The
/// caller decides by position what a bad record means: a malformed FINAL
/// record is the torn write of a killed process and is dropped, anything
/// earlier is corruption.
std::vector<campaign_cell> read_cell_records(
    const std::vector<std::string>& lines, std::size_t first,
    std::uint64_t max_cells, std::uint32_t shard_index,
    std::uint32_t shard_count) {
  std::vector<campaign_cell> cells;
  for (std::size_t i = first; i < lines.size(); ++i) {
    // More records than this shard's share of the grid is a foreign or
    // stale journal — loud even on the final line, where a torn record
    // would be forgiven.
    if (cells.size() >= max_cells)
      bad(parse_error_kind::mismatch,
          "journal has more cell records than its share of the grid");
    try {
      cells.push_back(read_cell_record(
          lines[i], shard_index + cells.size() * std::uint64_t{shard_count}));
    } catch (const parse_error& e) {
      if (i + 1 == lines.size()) break;
      bad(e.kind() == parse_error_kind::out_of_range
              ? parse_error_kind::out_of_range
              : parse_error_kind::malformed,
          "malformed cell record at shard position " +
              std::to_string(cells.size()) + ": " + detail_of(e));
    }
  }
  return cells;
}

/// Validates the magic/version line (lines[0]). Returns false when the
/// header is an acceptable kill point (cut mid-write with nothing after
/// it); throws on a wrong magic or version.
bool parse_magic_line(const std::string& line) {
  std::istringstream head(line);
  std::string tok, version;
  if (!(head >> tok) || tok != magic)
    bad(parse_error_kind::mismatch, "not an anonpath checkpoint (bad magic)");
  const std::string want =
      "v" + std::to_string(checkpoint_file::format_version);
  if (!(head >> version)) return false;
  if (version != want)
    bad(parse_error_kind::version_mismatch,
        "format version mismatch: file has '" + version +
            "', this build reads '" + want + "'");
  return true;
}

std::uint64_t read_scope(stats::token_reader& in) {
  in.expect("scope");
  return in.hex64("scope");
}

std::pair<std::uint64_t, std::uint64_t> read_shard(stats::token_reader& in) {
  in.expect("shard");
  const std::uint64_t index = in.u64("shard index");
  return {index, in.u64("shard count")};
}

/// Header line i as `read` parses it; nullopt when the journal ends before
/// it or — on a lenient (resume) read — when it is the torn final line a
/// killed writer left. Any other line that fails to parse is malformed.
template <class Read>
auto header_line(const std::vector<std::string>& lines, std::size_t i,
                 bool lenient, Read read)
    -> std::optional<decltype(read(std::declval<stats::token_reader&>()))> {
  if (i >= lines.size()) return std::nullopt;
  std::istringstream ss(lines[i]);
  stats::token_reader in(ss, "checkpoint");
  try {
    return read(in);
  } catch (const parse_error& e) {
    if (lenient && i + 1 == lines.size()) return std::nullopt;
    bad(parse_error_kind::malformed, "malformed header line: " + detail_of(e));
  }
}

bool looks_like_shard_line(const std::string& line) {
  return line.rfind("shard ", 0) == 0;
}

/// FNV-1a, the canonical 64-bit offset/prime pair.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::uint64_t campaign_scope(const campaign_grid& grid,
                             const campaign_config& config) {
  // Canonical serialization of every input that shapes the cell list or a
  // run's seed. Field order is fixed; doubles are bit patterns; every axis
  // element is fully expanded (labels alone could collide).
  std::ostringstream ss;
  ss << "grid-v1";
  for_each_axis([&](const auto& axis) {
    ss << ' ' << axis.scope_tag;
    for (const auto& value : grid.*axis.values) axis.put_scope(ss, value);
  });
  ss << " outages";
  for (const net::outage& o : grid.fault_outages) {
    ss << ' ' << o.node;
    put_hex_double(ss, o.start);
    put_hex_double(ss, o.duration);
  }
  ss << " shared " << grid.message_count;
  for (double x : {grid.forward_prob, grid.latency.base, grid.latency.jitter,
                   grid.latency.processing, grid.identified_threshold})
    put_hex_double(ss, x);
  ss << ' ' << static_cast<int>(grid.session_receiver_law.kind);
  put_hex_double(ss, grid.session_receiver_law.exponent);
  // The trailing 0 stood for the retired via_trace flag; it stays so every
  // existing journal keeps its scope (one written with it set now mismatches).
  ss << " run " << config.replicas << ' ' << config.master_seed << " 0";
  return fnv1a(ss.str());
}

void write_checkpoint_header(std::ostream& os, std::uint64_t scope,
                             std::uint32_t shard_index,
                             std::uint32_t shard_count) {
  ANONPATH_EXPECTS(shard_count >= 1 && shard_index < shard_count);
  os << magic << " v" << checkpoint_file::format_version << '\n';
  os << "scope ";
  stats::put_hex64(os, scope);
  os << '\n';
  if (shard_count > 1)
    os << "shard " << shard_index << ' ' << shard_count << '\n';
}

void append_checkpoint_cell(std::ostream& os, std::uint64_t index,
                            const campaign_cell& cell) {
  os << "cell " << index << ' ' << cell.replicas << ' ' << cell.submitted
     << ' ' << cell.delivered;
  put_summary(os, cell.delivered_fraction);
  put_summary(os, cell.latency_seconds);
  put_summary(os, cell.hops);
  put_summary(os, cell.entropy_bits);
  put_summary(os, cell.identified_fraction);
  put_summary(os, cell.top1_accuracy);
  put_summary(os, cell.attack_entropy_bits);
  put_summary(os, cell.attack_identified);
  put_summary(os, cell.rounds_to_identify);
  put_summary(os, cell.retransmit_rate);
  if (cell.error.empty()) {
    os << " 0";
  } else {
    // The error text is the line's tail: free-form except for newlines,
    // which would breach the one-record-per-line frame.
    std::string msg = cell.error;
    for (char& ch : msg)
      if (ch == '\n' || ch == '\r') ch = ' ';
    os << " 1 " << msg;
  }
  os << '\n';
}

std::vector<campaign_cell> read_checkpoint(std::istream& is,
                                           std::uint64_t scope,
                                           std::uint64_t max_cells,
                                           std::uint32_t shard_index,
                                           std::uint32_t shard_count) {
  ANONPATH_EXPECTS(shard_count >= 1 && shard_index < shard_count);
  const std::vector<std::string> lines = read_lines(is);
  // Resuming is lenient: an empty file, or a header cut mid-write with
  // nothing after it, is a writer killed before any progress — zero
  // progress, not corruption.
  if (lines.empty() || !parse_magic_line(lines[0])) return {};
  const auto file_scope = header_line(lines, 1, true, read_scope);
  if (!file_scope) return {};
  if (*file_scope != scope)
    bad(parse_error_kind::mismatch,
        "checkpoint belongs to a different campaign (scope mismatch)");

  std::size_t first_record = 2;
  if (shard_count > 1) {
    // A shard resume demands the matching shard line.
    const auto id = header_line(lines, 2, true, read_shard);
    if (!id) return {};
    if (id->first != shard_index || id->second != shard_count)
      bad(parse_error_kind::mismatch,
          "checkpoint belongs to shard " + std::to_string(id->first) +
              " of " + std::to_string(id->second) + ", not shard " +
              std::to_string(shard_index) + " of " +
              std::to_string(shard_count));
    first_record = 3;
  } else if (lines.size() > 2 && looks_like_shard_line(lines[2])) {
    // An unsharded resume must not silently adopt a shard journal: its
    // records are a strided subset, not the prefix this reader returns.
    bad(parse_error_kind::mismatch,
        "checkpoint is a shard journal; merge shards instead of resuming "
        "unsharded");
  }
  return read_cell_records(lines, first_record, max_cells, shard_index,
                           shard_count);
}

std::uint64_t shard_cell_count(std::uint64_t cell_total,
                               std::uint32_t shard_index,
                               std::uint32_t shard_count) {
  ANONPATH_EXPECTS(shard_count >= 1 && shard_index < shard_count);
  if (cell_total <= shard_index) return 0;
  return (cell_total - 1 - shard_index) / shard_count + 1;
}

shard_checkpoint read_shard_checkpoint(std::istream& is, std::uint64_t scope,
                                       std::uint64_t cell_total) {
  const std::vector<std::string> lines = read_lines(is);
  // Merging is strict where resuming is lenient: a shard whose header
  // never made it to disk contributes nothing identifiable and the merge
  // cannot proceed.
  if (lines.empty() || !parse_magic_line(lines[0]))
    bad(parse_error_kind::truncated,
        "shard journal has no complete header line");
  const auto file_scope = header_line(lines, 1, false, read_scope);
  if (!file_scope)
    bad(parse_error_kind::truncated, "shard journal has no scope line");
  if (*file_scope != scope)
    bad(parse_error_kind::mismatch,
        "shard journal belongs to a different campaign (scope mismatch)");

  // No shard line: an unsharded journal, mergeable as the trivial 1-shard
  // split (out keeps its 0-of-1 defaults).
  shard_checkpoint out;
  std::size_t first_record = 2;
  if (lines.size() > 2 && looks_like_shard_line(lines[2])) {
    const auto [index, count] = *header_line(lines, 2, false, read_shard);
    if (count < 2 || index >= count || count > 0xFFFFFFFFull)
      bad(parse_error_kind::out_of_range,
          "shard identity " + std::to_string(index) + " of " +
              std::to_string(count) + " is out of range");
    out.shard_index = static_cast<std::uint32_t>(index);
    out.shard_count = static_cast<std::uint32_t>(count);
    first_record = 3;
  }
  out.cells = read_cell_records(
      lines, first_record,
      shard_cell_count(cell_total, out.shard_index, out.shard_count),
      out.shard_index, out.shard_count);
  return out;
}

campaign_result merge_campaign(const campaign_grid& grid,
                               const campaign_config& config,
                               const std::vector<std::string>& shard_paths) {
  ANONPATH_EXPECTS(!shard_paths.empty());
  const std::uint64_t scope = campaign_scope(grid, config);
  const std::vector<scenario> scenarios = expand_grid(grid);
  const std::uint64_t cell_total = scenarios.size();

  std::vector<campaign_cell> cells(cell_total);
  std::vector<char> seen;  // shard indices already merged
  std::uint32_t shard_count = 0;
  for (const std::string& path : shard_paths) {
    std::ifstream in(path);
    if (!in)
      bad(parse_error_kind::io,
          "cannot open shard checkpoint '" + path + "' for reading");
    shard_checkpoint shard;
    try {
      shard = read_shard_checkpoint(in, scope, cell_total);
    } catch (const parse_error& e) {
      // Re-frame with the offending path: a merge reads many files and
      // "scope mismatch" alone does not say which one to go look at.
      throw parse_error(e.kind(), "checkpoint",
                        detail_of(e) + " (in '" + path + "')");
    }
    if (shard_count == 0) {
      shard_count = shard.shard_count;
      seen.assign(shard_count, 0);
    } else if (shard.shard_count != shard_count) {
      bad(parse_error_kind::mismatch,
          "'" + path + "' declares " + std::to_string(shard.shard_count) +
              " shards but earlier inputs declared " +
              std::to_string(shard_count));
    }
    if (seen[shard.shard_index])
      bad(parse_error_kind::mismatch,
          "duplicate shard " + std::to_string(shard.shard_index) + " of " +
              std::to_string(shard_count) + " ('" + path + "')");
    seen[shard.shard_index] = 1;
    const std::uint64_t expect =
        shard_cell_count(cell_total, shard.shard_index, shard_count);
    if (shard.cells.size() < expect)
      bad(parse_error_kind::truncated,
          "shard " + std::to_string(shard.shard_index) + " of " +
              std::to_string(shard_count) + " ('" + path + "') is incomplete: " +
              std::to_string(shard.cells.size()) + " of " +
              std::to_string(expect) + " cells");
    for (std::uint64_t k = 0; k < shard.cells.size(); ++k)
      cells[shard.shard_index + k * shard_count] = std::move(shard.cells[k]);
  }
  for (std::uint32_t i = 0; i < shard_count; ++i)
    if (!seen[i])
      bad(parse_error_kind::mismatch,
          "missing shard " + std::to_string(i) + " of " +
              std::to_string(shard_count));

  campaign_result result;
  result.requested_cells = grid.cell_count();
  result.skipped_cells = result.requested_cells - cell_total;
  result.runs = cell_total * config.replicas;
  result.cells = std::move(cells);
  // Shard records carry default scenes, like any checkpoint read; rebind
  // them from the grid so the CSV renders real coordinates.
  for (std::uint64_t i = 0; i < cell_total; ++i)
    result.cells[i].scene = scenarios[i];
  return result;
}

}  // namespace anonpath::sim
