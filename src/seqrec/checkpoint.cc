#include "seqrec/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/faultfs.h"
#include "nn/serialize.h"

namespace whitenrec {
namespace seqrec {

namespace {

constexpr const char* kBestFileName = "best.wrc";
constexpr const char* kGenPrefix = "ckpt-";
constexpr const char* kGenSuffix = ".wrc";

// Staged image of a checkpoint: everything is decoded and validated here
// first, and only a fully populated stage is committed to the live state.
struct Stage {
  std::vector<linalg::Matrix> params;
  std::int64_t adam_t = 0;
  std::vector<linalg::Matrix> adam_m;
  std::vector<linalg::Matrix> adam_v;
  std::vector<linalg::RngState> rngs;
  std::vector<std::size_t> sample_order;
  TrainerBookkeeping book;
  std::vector<linalg::Matrix> best_params;
};

Status ReadAdamSection(nn::SectionReader* section, const CheckpointRefs& refs,
                       Stage* stage) {
  WR_RETURN_IF_ERROR(section->ReadI64(&stage->adam_t));
  if (stage->adam_t < 0) {
    return Status::DataLoss("checkpoint has a negative Adam step count");
  }
  std::uint64_t count = 0;
  WR_RETURN_IF_ERROR(section->ReadU64(&count));
  if (count != refs.params.size()) {
    return Status::InvalidArgument(
        "checkpoint Adam moment count " + std::to_string(count) +
        " does not match the optimizer's " +
        std::to_string(refs.params.size()));
  }
  stage->adam_m.reserve(count);
  stage->adam_v.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    linalg::Matrix m;
    linalg::Matrix v;
    WR_RETURN_IF_ERROR(section->ReadMatrix(&m));
    WR_RETURN_IF_ERROR(section->ReadMatrix(&v));
    const nn::Parameter* p = refs.params[k];
    if (m.rows() != p->value.rows() || m.cols() != p->value.cols() ||
        v.rows() != p->value.rows() || v.cols() != p->value.cols()) {
      return Status::InvalidArgument(
          "checkpoint Adam moment shape mismatch for parameter '" + p->name +
          "'");
    }
    stage->adam_m.push_back(std::move(m));
    stage->adam_v.push_back(std::move(v));
  }
  return section->ExpectEnd();
}

Status ReadRngSection(nn::SectionReader* section, const CheckpointRefs& refs,
                      Stage* stage) {
  std::uint64_t count = 0;
  WR_RETURN_IF_ERROR(section->ReadU64(&count));
  if (count != refs.rngs.size()) {
    return Status::InvalidArgument(
        "checkpoint RNG stream count " + std::to_string(count) +
        " does not match the trainer's " + std::to_string(refs.rngs.size()));
  }
  stage->rngs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string name;
    WR_RETURN_IF_ERROR(section->ReadString(&name, 256));
    if (name != refs.rngs[i].first) {
      return Status::InvalidArgument("checkpoint RNG stream '" + name +
                                     "' does not match expected '" +
                                     refs.rngs[i].first + "'");
    }
    linalg::RngState state;
    for (int k = 0; k < 4; ++k) {
      WR_RETURN_IF_ERROR(section->ReadU64(&state.s[k]));
    }
    std::uint64_t has_cached = 0;
    WR_RETURN_IF_ERROR(section->ReadU64(&has_cached));
    if (has_cached > 1) {
      return Status::DataLoss("checkpoint RNG stream '" + name +
                              "' has a corrupt Box-Muller flag");
    }
    state.has_cached_gaussian = has_cached == 1;
    WR_RETURN_IF_ERROR(section->ReadF64(&state.cached_gaussian));
    stage->rngs.push_back(state);
  }
  return section->ExpectEnd();
}

Status ReadOrderSection(nn::SectionReader* section, const CheckpointRefs& refs,
                        Stage* stage) {
  std::uint64_t count = 0;
  WR_RETURN_IF_ERROR(section->ReadU64(&count));
  const std::size_t n = refs.sample_order->size();
  if (count != n) {
    return Status::InvalidArgument(
        "checkpoint sample order has " + std::to_string(count) +
        " entries where the trainer has " + std::to_string(n));
  }
  std::vector<char> seen(n, 0);
  stage->sample_order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t index = 0;
    WR_RETURN_IF_ERROR(section->ReadU64(&index));
    if (index >= n || seen[index] != 0) {
      return Status::DataLoss("checkpoint sample order is not a permutation");
    }
    seen[index] = 1;
    stage->sample_order.push_back(static_cast<std::size_t>(index));
  }
  return section->ExpectEnd();
}

Status ReadTrainerSection(nn::SectionReader* section, Stage* stage) {
  TrainerBookkeeping& book = stage->book;
  WR_RETURN_IF_ERROR(section->ReadU64(&book.next_epoch));
  WR_RETURN_IF_ERROR(section->ReadU64(&book.best_epoch));
  WR_RETURN_IF_ERROR(section->ReadU64(&book.stall));
  WR_RETURN_IF_ERROR(section->ReadF64(&book.best_valid_ndcg20));
  WR_RETURN_IF_ERROR(section->ReadF64(&book.total_seconds));
  std::uint64_t num_logs = 0;
  WR_RETURN_IF_ERROR(section->ReadU64(&num_logs));
  if (num_logs > (1u << 20)) {
    return Status::DataLoss("checkpoint has a corrupt epoch-log count");
  }
  if (num_logs != book.next_epoch) {
    return Status::DataLoss(
        "checkpoint epoch-log count " + std::to_string(num_logs) +
        " disagrees with next_epoch " + std::to_string(book.next_epoch));
  }
  book.epochs.reserve(static_cast<std::size_t>(num_logs));
  for (std::uint64_t i = 0; i < num_logs; ++i) {
    EpochLog log;
    std::uint64_t epoch = 0;
    WR_RETURN_IF_ERROR(section->ReadU64(&epoch));
    log.epoch = static_cast<std::size_t>(epoch);
    WR_RETURN_IF_ERROR(section->ReadF64(&log.train_loss));
    WR_RETURN_IF_ERROR(section->ReadF64(&log.valid_ndcg20));
    WR_RETURN_IF_ERROR(section->ReadF64(&log.seconds));
    WR_RETURN_IF_ERROR(section->ReadF64(&log.condition_number));
    WR_RETURN_IF_ERROR(section->ReadF64(&log.l_align));
    WR_RETURN_IF_ERROR(section->ReadF64(&log.l_uniform_user));
    WR_RETURN_IF_ERROR(section->ReadF64(&log.l_uniform_item));
    book.epochs.push_back(log);
  }
  return section->ExpectEnd();
}

Status ReadBestSection(nn::SectionReader* section, const CheckpointRefs& refs,
                       Stage* stage) {
  std::uint64_t count = 0;
  WR_RETURN_IF_ERROR(section->ReadU64(&count));
  if (count == 0) return section->ExpectEnd();  // no best snapshot yet
  if (count != refs.params.size()) {
    return Status::InvalidArgument(
        "checkpoint best-model snapshot count mismatch");
  }
  stage->best_params.reserve(count);
  for (const nn::Parameter* p : refs.params) {
    std::string name;
    WR_RETURN_IF_ERROR(section->ReadString(&name, 4096));
    if (name != p->name) {
      return Status::InvalidArgument(
          "checkpoint best-model snapshot holds '" + name + "' where '" +
          p->name + "' was expected");
    }
    linalg::Matrix value;
    WR_RETURN_IF_ERROR(section->ReadMatrix(&value));
    if (value.rows() != p->value.rows() || value.cols() != p->value.cols()) {
      return Status::InvalidArgument(
          "checkpoint best-model snapshot shape mismatch for '" + p->name +
          "'");
    }
    stage->best_params.push_back(std::move(value));
  }
  return section->ExpectEnd();
}

}  // namespace

Status SaveCheckpoint(const std::string& path, const CheckpointRefs& refs) {
  nn::CheckpointWriter writer;
  writer.BeginSection("params");
  nn::WriteParamsSectionBody(&writer, refs.params);

  if (refs.optimizer != nullptr) {
    WR_CHECK_EQ(refs.optimizer->parameters().size(), refs.params.size());
    writer.BeginSection("adam");
    writer.WriteI64(refs.optimizer->step_count());
    writer.WriteU64(refs.params.size());
    for (std::size_t k = 0; k < refs.params.size(); ++k) {
      writer.WriteMatrix(refs.optimizer->first_moments()[k]);
      writer.WriteMatrix(refs.optimizer->second_moments()[k]);
    }
  }

  if (!refs.rngs.empty()) {
    writer.BeginSection("rng");
    writer.WriteU64(refs.rngs.size());
    for (const auto& [name, rng] : refs.rngs) {
      const linalg::RngState state = rng->GetState();
      writer.WriteString(name);
      for (int k = 0; k < 4; ++k) writer.WriteU64(state.s[k]);
      writer.WriteU64(state.has_cached_gaussian ? 1 : 0);
      writer.WriteF64(state.cached_gaussian);
    }
  }

  if (refs.sample_order != nullptr) {
    writer.BeginSection("order");
    writer.WriteU64(refs.sample_order->size());
    for (std::size_t index : *refs.sample_order) writer.WriteU64(index);
  }

  if (refs.book != nullptr) {
    const TrainerBookkeeping& book = *refs.book;
    WR_CHECK_EQ(book.epochs.size(), book.next_epoch);
    writer.BeginSection("trainer");
    writer.WriteU64(book.next_epoch);
    writer.WriteU64(book.best_epoch);
    writer.WriteU64(book.stall);
    writer.WriteF64(book.best_valid_ndcg20);
    writer.WriteF64(book.total_seconds);
    writer.WriteU64(book.epochs.size());
    for (const EpochLog& log : book.epochs) {
      writer.WriteU64(log.epoch);
      writer.WriteF64(log.train_loss);
      writer.WriteF64(log.valid_ndcg20);
      writer.WriteF64(log.seconds);
      writer.WriteF64(log.condition_number);
      writer.WriteF64(log.l_align);
      writer.WriteF64(log.l_uniform_user);
      writer.WriteF64(log.l_uniform_item);
    }
  }

  if (refs.best_params != nullptr) {
    writer.BeginSection("best_params");
    if (refs.best_params->empty()) {
      writer.WriteU64(0);
    } else {
      nn::WriteParamsSectionBody(&writer, refs.params, refs.best_params);
    }
  }

  return core::AtomicWriteFile(path, writer.Finish());
}

Status LoadCheckpoint(const std::string& path, const CheckpointRefs& refs) {
  Result<std::string> blob = core::ReadFileToString(path);
  if (!blob.ok()) return blob.status();
  Result<nn::CheckpointReader> reader =
      nn::CheckpointReader::Parse(std::move(blob).ValueOrDie());
  if (!reader.ok()) return reader.status();

  // Stage everything; commit nothing until every section validated.
  Stage stage;
  {
    Result<nn::SectionReader> section = reader.value().Section("params");
    if (!section.ok()) return section.status();
    WR_RETURN_IF_ERROR(
        nn::ReadParamsSectionBody(&section.value(), refs.params,
                                  &stage.params));
    WR_RETURN_IF_ERROR(section.value().ExpectEnd());
  }
  if (refs.optimizer != nullptr) {
    Result<nn::SectionReader> section = reader.value().Section("adam");
    if (!section.ok()) return section.status();
    WR_RETURN_IF_ERROR(ReadAdamSection(&section.value(), refs, &stage));
  }
  if (!refs.rngs.empty()) {
    Result<nn::SectionReader> section = reader.value().Section("rng");
    if (!section.ok()) return section.status();
    WR_RETURN_IF_ERROR(ReadRngSection(&section.value(), refs, &stage));
  }
  if (refs.sample_order != nullptr) {
    Result<nn::SectionReader> section = reader.value().Section("order");
    if (!section.ok()) return section.status();
    WR_RETURN_IF_ERROR(ReadOrderSection(&section.value(), refs, &stage));
  }
  if (refs.book != nullptr) {
    Result<nn::SectionReader> section = reader.value().Section("trainer");
    if (!section.ok()) return section.status();
    WR_RETURN_IF_ERROR(ReadTrainerSection(&section.value(), &stage));
  }
  if (refs.best_params != nullptr) {
    Result<nn::SectionReader> section = reader.value().Section("best_params");
    if (!section.ok()) return section.status();
    WR_RETURN_IF_ERROR(ReadBestSection(&section.value(), refs, &stage));
  }

  // Commit. Every step below is infallible: shapes were validated above.
  for (std::size_t i = 0; i < refs.params.size(); ++i) {
    refs.params[i]->value = std::move(stage.params[i]);
  }
  if (refs.optimizer != nullptr) {
    const Status st = refs.optimizer->RestoreState(
        stage.adam_t, std::move(stage.adam_m), std::move(stage.adam_v));
    WR_CHECK_MSG(st.ok(), "validated Adam state failed to restore");
  }
  for (std::size_t i = 0; i < refs.rngs.size(); ++i) {
    refs.rngs[i].second->SetState(stage.rngs[i]);
  }
  if (refs.sample_order != nullptr) {
    *refs.sample_order = std::move(stage.sample_order);
  }
  if (refs.book != nullptr) *refs.book = std::move(stage.book);
  if (refs.best_params != nullptr) {
    *refs.best_params = std::move(stage.best_params);
  }
  return Status::OK();
}

// --- CheckpointManager ------------------------------------------------------

CheckpointManager::CheckpointManager(std::string dir,
                                     std::size_t keep_generations)
    : dir_(std::move(dir)), keep_(keep_generations == 0 ? 1 : keep_generations) {}

Status CheckpointManager::Init() { return core::EnsureDirectory(dir_); }

std::string CheckpointManager::GenerationPath(std::uint64_t next_epoch) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%08llu%s", kGenPrefix,
                static_cast<unsigned long long>(next_epoch), kGenSuffix);
  return dir_ + "/" + name;
}

std::string CheckpointManager::BestPath() const {
  return dir_ + "/" + kBestFileName;
}

std::vector<std::string> CheckpointManager::ListGenerationFiles() const {
  std::vector<std::string> out;
  Result<std::vector<std::string>> names = core::ListDirectory(dir_);
  if (!names.ok()) return out;
  for (const std::string& name : names.value()) {
    const std::size_t prefix_len = std::string(kGenPrefix).size();
    const std::size_t suffix_len = std::string(kGenSuffix).size();
    if (name.size() <= prefix_len + suffix_len) continue;
    if (name.compare(0, prefix_len, kGenPrefix) != 0) continue;
    if (name.compare(name.size() - suffix_len, suffix_len, kGenSuffix) != 0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix_len, name.size() - prefix_len - suffix_len);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    out.push_back(name);
  }
  // Zero-padded fixed-width numbers: lexicographic order IS numeric order.
  std::sort(out.begin(), out.end());
  return out;
}

Status CheckpointManager::WriteGeneration(const CheckpointRefs& refs) {
  WR_CHECK(refs.book != nullptr);
  const std::string path = GenerationPath(refs.book->next_epoch);
  WR_RETURN_IF_ERROR(SaveCheckpoint(path, refs));
  // Prune older generations, keeping the newest keep_. Best-model state is
  // embedded in every generation, so nothing else needs protecting.
  std::vector<std::string> gens = ListGenerationFiles();
  if (gens.size() > keep_) {
    for (std::size_t i = 0; i + keep_ < gens.size(); ++i) {
      core::RemoveFileIfExists(dir_ + "/" + gens[i]);  // best effort
    }
  }
  return Status::OK();
}

Status CheckpointManager::WriteBest(const CheckpointRefs& refs) {
  return nn::SaveParameters(BestPath(), refs.params);
}

bool CheckpointManager::TryLoadLatest(const CheckpointRefs& refs,
                                      std::string* loaded_path) {
  std::vector<std::string> gens = ListGenerationFiles();
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    const std::string path = dir_ + "/" + *it;
    const Status st = LoadCheckpoint(path, refs);
    if (st.ok()) {
      if (loaded_path != nullptr) *loaded_path = path;
      return true;
    }
    std::fprintf(stderr,
                 "whitenrec: skipping unusable checkpoint %s: %s\n",
                 path.c_str(), st.ToString().c_str());
  }
  return false;
}

}  // namespace seqrec
}  // namespace whitenrec
