#include "data/io.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "core/faultfs.h"

namespace whitenrec {
namespace data {

namespace {

// Guards against allocating absurd buffers from a corrupt .meta header
// before any cross-file validation can run.
constexpr std::size_t kMaxItems = 1u << 28;
constexpr std::size_t kMaxEmbedDim = 1u << 20;

// Strict unsigned parse: every character must be a digit and the value must
// fit. `stream >> value` is too lenient here — it accepts leading signs and,
// worse, a malformed token simply stops extraction and looks like a clean
// end of line.
bool ParseIndex(const std::string& token, std::size_t* out) {
  if (token.empty()) return false;
  for (char ch : token) {
    if (ch < '0' || ch > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
  if (errno != 0 || end != token.c_str() + token.size()) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

bool ParseDouble(const std::string& token, double* out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (errno != 0 || end != token.c_str() + token.size()) return false;
  *out = v;
  return true;
}

// Splits a blob into lines ('\n', optional trailing '\r' stripped) so every
// parse error can name the exact file and line it came from.
std::vector<std::string> SplitLines(const std::string& blob) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= blob.size()) {
    const std::size_t nl = blob.find('\n', start);
    if (nl == std::string::npos) {
      if (start < blob.size()) lines.push_back(blob.substr(start));
      break;
    }
    std::string line = blob.substr(start, nl - start);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(std::move(line));
    start = nl + 1;
  }
  return lines;
}

// A damaged file is DataLoss; a well-formed line holding a value the
// loader refuses (a non-finite embedding) is InvalidArgument.
Status MalformedLine(const std::string& file, std::size_t line_no,
                     const std::string& what,
                     StatusCode code = StatusCode::kDataLoss) {
  return Status(code, "LoadDataset: " + file + " line " +
                          std::to_string(line_no) + ": " + what);
}

}  // namespace

Status SaveDataset(const Dataset& dataset, const std::string& prefix) {
  // Each file is assembled in memory and persisted via atomic replace, so a
  // crash mid-save can never leave a half-written file behind.
  {
    std::ostringstream meta;
    meta << dataset.num_items << '\t' << dataset.num_categories << '\t'
         << dataset.text_embeddings.cols() << '\n';
    meta << dataset.name << '\n';
    WR_RETURN_IF_ERROR(core::AtomicWriteFile(prefix + ".meta", meta.str()));
  }
  {
    std::ostringstream seqs;
    for (const auto& seq : dataset.sequences) {
      for (std::size_t i = 0; i < seq.size(); ++i) {
        if (i > 0) seqs << ' ';
        seqs << seq[i];
      }
      seqs << '\n';
    }
    WR_RETURN_IF_ERROR(
        core::AtomicWriteFile(prefix + ".sequences", seqs.str()));
  }
  {
    std::ostringstream items;
    items.precision(17);
    for (std::size_t i = 0; i < dataset.num_items; ++i) {
      items << i << '\t'
            << (i < dataset.item_category.size() ? dataset.item_category[i]
                                                 : 0)
            << '\t';
      for (std::size_t c = 0; c < dataset.text_embeddings.cols(); ++c) {
        if (c > 0) items << ' ';
        items << dataset.text_embeddings(i, c);
      }
      items << '\n';
    }
    WR_RETURN_IF_ERROR(core::AtomicWriteFile(prefix + ".items", items.str()));
  }
  return Status::OK();
}

Result<Dataset> LoadDataset(const std::string& prefix) {
  Dataset dataset;
  std::size_t embed_dim = 0;
  {
    Result<std::string> blob = core::ReadFileToString(prefix + ".meta");
    if (!blob.ok()) return blob.status();
    const std::vector<std::string> lines = SplitLines(blob.value());
    if (lines.empty()) {
      return Status::DataLoss("LoadDataset: " + prefix + ".meta is empty");
    }
    std::istringstream header(lines[0]);
    std::string items_tok;
    std::string cats_tok;
    std::string dim_tok;
    if (!(header >> items_tok >> cats_tok >> dim_tok) ||
        !ParseIndex(items_tok, &dataset.num_items) ||
        !ParseIndex(cats_tok, &dataset.num_categories) ||
        !ParseIndex(dim_tok, &embed_dim)) {
      return MalformedLine(prefix + ".meta", 1, "malformed header");
    }
    std::string extra;
    if (header >> extra) {
      return MalformedLine(prefix + ".meta", 1,
                           "trailing token '" + extra + "' after header");
    }
    if (dataset.num_items > kMaxItems || embed_dim > kMaxEmbedDim) {
      return MalformedLine(prefix + ".meta", 1, "implausible header counts");
    }
    if (lines.size() > 1) dataset.name = lines[1];
  }

  {
    Result<std::string> blob = core::ReadFileToString(prefix + ".sequences");
    if (!blob.ok()) return blob.status();
    const std::vector<std::string> lines = SplitLines(blob.value());
    for (std::size_t ln = 0; ln < lines.size(); ++ln) {
      if (lines[ln].empty()) continue;
      std::istringstream stream(lines[ln]);
      std::vector<std::size_t> seq;
      std::string token;
      while (stream >> token) {
        std::size_t item = 0;
        if (!ParseIndex(token, &item)) {
          return MalformedLine(prefix + ".sequences", ln + 1,
                               "malformed item id '" + token + "'");
        }
        if (item >= dataset.num_items) {
          return Status::OutOfRange(
              "LoadDataset: " + prefix + ".sequences line " +
              std::to_string(ln + 1) + ": item id " + std::to_string(item) +
              " out of range [0, " + std::to_string(dataset.num_items) + ")");
        }
        seq.push_back(item);
      }
      dataset.sequences.push_back(std::move(seq));
    }
  }

  dataset.item_category.assign(dataset.num_items, 0);
  dataset.text_embeddings = linalg::Matrix(dataset.num_items, embed_dim);
  {
    Result<std::string> blob = core::ReadFileToString(prefix + ".items");
    if (!blob.ok()) return blob.status();
    const std::vector<std::string> lines = SplitLines(blob.value());
    std::vector<char> seen(dataset.num_items, 0);
    std::size_t rows_seen = 0;
    for (std::size_t ln = 0; ln < lines.size(); ++ln) {
      if (lines[ln].empty()) continue;
      std::istringstream stream(lines[ln]);
      std::string id_tok;
      std::string cat_tok;
      if (!(stream >> id_tok >> cat_tok)) {
        return MalformedLine(prefix + ".items", ln + 1, "truncated item line");
      }
      std::size_t id = 0;
      std::size_t category = 0;
      if (!ParseIndex(id_tok, &id)) {
        return MalformedLine(prefix + ".items", ln + 1,
                             "malformed item id '" + id_tok + "'");
      }
      if (!ParseIndex(cat_tok, &category)) {
        return MalformedLine(prefix + ".items", ln + 1,
                             "malformed category '" + cat_tok + "'");
      }
      if (id >= dataset.num_items) {
        return Status::OutOfRange(
            "LoadDataset: " + prefix + ".items line " +
            std::to_string(ln + 1) + ": item id " + std::to_string(id) +
            " out of range [0, " + std::to_string(dataset.num_items) + ")");
      }
      if (category >= dataset.num_categories && dataset.num_categories > 0) {
        return Status::OutOfRange(
            "LoadDataset: " + prefix + ".items line " +
            std::to_string(ln + 1) + ": category " +
            std::to_string(category) + " out of range [0, " +
            std::to_string(dataset.num_categories) + ")");
      }
      if (seen[id]) {
        return MalformedLine(prefix + ".items", ln + 1,
                             "duplicate item id " + std::to_string(id));
      }
      seen[id] = 1;
      dataset.item_category[id] = category;
      std::string value_tok;
      for (std::size_t c = 0; c < embed_dim; ++c) {
        double v = 0.0;
        if (!(stream >> value_tok) || !ParseDouble(value_tok, &v)) {
          return MalformedLine(
              prefix + ".items", ln + 1,
              "embedding row too short or malformed at column " +
                  std::to_string(c));
        }
        // strtod reads "nan" and "inf"; such a value would flow unchecked
        // into whitening and training.
        if (!std::isfinite(v)) {
          return MalformedLine(prefix + ".items", ln + 1,
                               "non-finite embedding value '" + value_tok +
                                   "' at column " + std::to_string(c),
                               StatusCode::kInvalidArgument);
        }
        dataset.text_embeddings(id, c) = v;
      }
      if (stream >> value_tok) {
        return MalformedLine(prefix + ".items", ln + 1,
                             "trailing token '" + value_tok +
                                 "' after embedding row");
      }
      ++rows_seen;
    }
    if (rows_seen != dataset.num_items) {
      return Status::DataLoss(
          "LoadDataset: " + prefix + ".items has " +
          std::to_string(rows_seen) + " rows, expected " +
          std::to_string(dataset.num_items));
    }
  }
  return dataset;
}

}  // namespace data
}  // namespace whitenrec
