#include "workload/trace_io.h"

#include <fstream>
#include <sstream>

#include "util/check.h"

namespace tetri::workload {

namespace {

std::string
QuoteCsv(const std::string& text)
{
  std::string out = "\"";
  for (char c : text) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

costmodel::Resolution
ResolutionFromName(const std::string& name)
{
  for (costmodel::Resolution res : costmodel::kAllResolutions) {
    if (costmodel::ResolutionName(res) == name) return res;
  }
  TETRI_FATAL("unknown resolution '" << name << "' in trace CSV");
}

/** Split one CSV line honoring quoted fields. */
std::vector<std::string>
SplitCsvLine(const std::string& line)
{
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
        field += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        field += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field += c;
    }
  }
  fields.push_back(std::move(field));
  return fields;
}

}  // namespace

std::string
TraceToCsv(const Trace& trace)
{
  std::ostringstream oss;
  oss << "id,arrival_us,deadline_us,resolution,num_steps,prompt\n";
  for (const TraceRequest& req : trace.requests) {
    oss << req.id << ',' << req.arrival_us << ',' << req.deadline_us
        << ',' << costmodel::ResolutionName(req.resolution) << ','
        << req.num_steps << ',' << QuoteCsv(req.prompt) << '\n';
  }
  return oss.str();
}

Trace
TraceFromCsv(const std::string& csv)
{
  Trace trace;
  trace.mix_name = "FromCsv";
  std::istringstream iss(csv);
  std::string line;
  bool header = true;
  while (std::getline(iss, line)) {
    if (line.empty()) continue;
    if (header) {
      header = false;
      continue;
    }
    auto fields = SplitCsvLine(line);
    if (fields.size() != 6) {
      TETRI_FATAL("trace CSV row has " << fields.size()
                                       << " fields, expected 6");
    }
    TraceRequest req;
    req.id = std::stoll(fields[0]);
    req.arrival_us = std::stoll(fields[1]);
    req.deadline_us = std::stoll(fields[2]);
    req.resolution = ResolutionFromName(fields[3]);
    req.num_steps = std::stoi(fields[4]);
    req.prompt = fields[5];
    if (req.num_steps <= 0 || req.deadline_us <= req.arrival_us) {
      TETRI_FATAL("trace CSV row for id " << req.id
                                          << " is inconsistent");
    }
    if (!trace.requests.empty() &&
        req.arrival_us < trace.requests.back().arrival_us) {
      TETRI_FATAL("trace CSV row for id "
                  << req.id << " arrives before the row above it");
    }
    trace.requests.push_back(std::move(req));
  }
  return trace;
}

bool
SaveTrace(const Trace& trace, const std::string& path)
{
  std::ofstream out(path);
  if (!out) return false;
  out << TraceToCsv(trace);
  return static_cast<bool>(out);
}

Trace
LoadTrace(const std::string& path)
{
  std::ifstream in(path);
  if (!in) TETRI_FATAL("cannot open trace file '" << path << "'");
  std::ostringstream oss;
  oss << in.rdbuf();
  return TraceFromCsv(oss.str());
}

}  // namespace tetri::workload
