// ASCII table rendering for the benchmark harnesses: every figure/table
// reproduction prints its rows through this writer so output is uniform and
// diffable.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace casted {

// Column-aligned ASCII table.  Usage:
//   TextTable t({"bench", "SCED", "DCED", "CASTED"});
//   t.addRow({"cjpeg", "1.71", "2.10", "1.58"});
//   std::cout << t.render();
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  // Appends a row; must have the same arity as the header.
  void addRow(std::vector<std::string> cells);

  // Appends a horizontal separator line.
  void addSeparator();

  // Renders the table with a header rule and right-aligned numeric-looking
  // cells.
  std::string render() const;

 private:
  struct Row {
    bool separator = false;
    std::vector<std::string> cells;
  };

  std::vector<std::string> header_;
  std::vector<Row> rows_;
};

// Minimal CSV writer used to dump experiment data for offline plotting.
class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header);

  void addRow(std::vector<std::string> cells);

  // Serialises with RFC-4180 quoting where needed.
  std::string render() const;

  // Writes render() to `path`; throws FatalError on I/O failure.
  void writeFile(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace casted
