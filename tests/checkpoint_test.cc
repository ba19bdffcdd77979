// Crash-safety test matrix for the checkpoint/resume subsystem:
//   - faultfs primitives (determinism, atomicity under injected faults)
//   - the WRECCKP2 container (corruption sweeps: truncation at every 64-byte
//     boundary, single bit-flips, missing files — all must surface as typed
//     errors, never crashes or silently wrong state)
//   - full-state checkpoints (bitwise save/load round trip)
//   - a trained model's Parameters(), saved and loaded into a fresh model
//     from the same factory, reproducing its test scores bitwise
//   - kill-and-resume at every epoch boundary reproducing the uninterrupted
//     run's TrainResult bitwise (timing fields excluded), for one model of
//     each training family
//   - divergence rollback from an injected NaN epoch loss
//
// The whole binary is rerun by the check-faults target under a
// WHITENREC_FAULT_RATE sweep. Tests that assert successful I/O pin a
// fault-free ScopedFaultConfig; the resume sweep deliberately does NOT, so
// it must hold under any injected fault schedule (a failed save degrades to
// more retraining, never to a different result).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/crc32c.h"
#include "core/faultfs.h"
#include "data/generator.h"
#include "data/split.h"
#include "nn/serialize.h"
#include "seqrec/baselines.h"
#include "seqrec/checkpoint.h"
#include "seqrec/trainer.h"
#include "all_models.h"

namespace whitenrec {
namespace seqrec {
namespace {

using linalg::Matrix;
using linalg::Rng;

bool BitsEqual(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  return ua == ub;
}

bool MatrixBitsEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!BitsEqual(a.data()[i], b.data()[i])) return false;
  }
  return true;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 appendix B.4 test vector.
  EXPECT_EQ(core::Crc32c("123456789", 9), 0xe3069283u);
  EXPECT_EQ(core::Crc32c("", 0), 0u);
  const std::string zeros(32, '\0');
  EXPECT_EQ(core::Crc32c(zeros.data(), zeros.size()), 0x8a9136aau);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string payload = "the quick brown fox jumps over the lazy dog";
  for (std::size_t cut = 0; cut <= payload.size(); ++cut) {
    const std::uint32_t part = core::Crc32cExtend(0, payload.data(), cut);
    const std::uint32_t full = core::Crc32cExtend(
        part, payload.data() + cut, payload.size() - cut);
    EXPECT_EQ(full, core::Crc32c(payload.data(), payload.size()));
  }
}

TEST(Crc32cTest, DetectsEverySingleBitFlip) {
  std::string payload = "checkpoint payload under test 0123456789";
  const std::uint32_t clean = core::Crc32c(payload.data(), payload.size());
  for (std::size_t bit = 0; bit < payload.size() * 8; ++bit) {
    payload[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(payload[bit / 8]) ^ (1u << (bit % 8)));
    EXPECT_NE(core::Crc32c(payload.data(), payload.size()), clean);
    payload[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(payload[bit / 8]) ^ (1u << (bit % 8)));
  }
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, DisabledNeverInjects) {
  core::ScopedFaultConfig cfg(42, 0.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(core::FaultInjector::Global().Next(
                  {core::FaultKind::kEio, core::FaultKind::kBitFlip}),
              core::FaultKind::kNone);
  }
  EXPECT_EQ(core::FaultInjector::Global().stats().injected(), 0u);
}

TEST(FaultInjectorTest, RateOneAlwaysInjects) {
  core::ScopedFaultConfig cfg(42, 1.0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE(core::FaultInjector::Global().Next({core::FaultKind::kEio}),
              core::FaultKind::kNone);
  }
}

TEST(FaultInjectorTest, ScheduleIsAFunctionOfTheSeed) {
  const auto draw_schedule = [](std::uint64_t seed) {
    core::ScopedFaultConfig cfg(seed, 0.5);
    std::vector<core::FaultKind> kinds;
    for (int i = 0; i < 200; ++i) {
      kinds.push_back(core::FaultInjector::Global().Next(
          {core::FaultKind::kEio, core::FaultKind::kShortWrite,
           core::FaultKind::kBitFlip, core::FaultKind::kTornRename}));
    }
    return kinds;
  };
  EXPECT_EQ(draw_schedule(7), draw_schedule(7));
  EXPECT_NE(draw_schedule(7), draw_schedule(8));
}

TEST(FaultInjectorTest, ScopedConfigRestoresPreviousSettings) {
  core::ScopedFaultConfig outer(5, 0.25);
  {
    core::ScopedFaultConfig inner(9, 0.75);
    EXPECT_EQ(core::FaultInjector::Global().seed(), 9u);
    EXPECT_DOUBLE_EQ(core::FaultInjector::Global().rate(), 0.75);
  }
  EXPECT_EQ(core::FaultInjector::Global().seed(), 5u);
  EXPECT_DOUBLE_EQ(core::FaultInjector::Global().rate(), 0.25);
}

// ---------------------------------------------------------------------------
// faultfs primitives
// ---------------------------------------------------------------------------

TEST(FaultFsTest, AtomicWriteReadRoundTrip) {
  core::ScopedFaultConfig cfg(1, 0.0);
  const std::string path = TempPath("faultfs_roundtrip.bin");
  const std::string payload = "hello\0world, with\nbinary bytes \x01\x02";
  ASSERT_TRUE(core::AtomicWriteFile(path, payload).ok());
  auto read = core::ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), payload);
  // Overwrite replaces wholesale.
  ASSERT_TRUE(core::AtomicWriteFile(path, "v2").ok());
  auto read2 = core::ReadFileToString(path);
  ASSERT_TRUE(read2.ok());
  EXPECT_EQ(read2.value(), "v2");
  ASSERT_TRUE(core::RemoveFileIfExists(path).ok());
  EXPECT_FALSE(core::FileExists(path));
}

TEST(FaultFsTest, ReadMissingFileIsIOError) {
  core::ScopedFaultConfig cfg(1, 0.0);
  auto read = core::ReadFileToString(TempPath("faultfs_missing.bin"));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
}

TEST(FaultFsTest, RemoveMissingFileIsOk) {
  core::ScopedFaultConfig cfg(1, 0.0);
  EXPECT_TRUE(core::RemoveFileIfExists(TempPath("faultfs_nothing")).ok());
}

TEST(FaultFsTest, EnsureDirectoryAndList) {
  core::ScopedFaultConfig cfg(1, 0.0);
  const std::string dir = TempPath("faultfs_dir/nested");
  ASSERT_TRUE(core::EnsureDirectory(dir).ok());
  ASSERT_TRUE(core::EnsureDirectory(dir).ok());  // idempotent
  ASSERT_TRUE(core::AtomicWriteFile(dir + "/b.txt", "b").ok());
  ASSERT_TRUE(core::AtomicWriteFile(dir + "/a.txt", "a").ok());
  auto names = core::ListDirectory(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(), (std::vector<std::string>{"a.txt", "b.txt"}));
  std::filesystem::remove_all(TempPath("faultfs_dir"));
}

// Sweeps seeds at a high fault rate: whatever the schedule does, a write
// that reports success must have produced a file of the right length whose
// content differs from the payload in at most one bit (the silent bit-flip
// fault — exactly what the container CRCs exist to catch). A write that
// reports failure is allowed to leave the old content, nothing, or a torn
// prefix, but never a longer-than-payload file.
TEST(FaultFsTest, AtomicWriteUnderFaultSweepNeverSilentlyTears) {
  const std::string path = TempPath("faultfs_sweep.bin");
  const std::string payload(1024, 'x');
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    core::ScopedFaultConfig cfg(seed, 0.7);
    std::filesystem::remove(path);
    const Status st = core::AtomicWriteFile(path, payload);
    core::ScopedFaultConfig read_clean(1, 0.0);
    if (st.ok()) {
      auto read = core::ReadFileToString(path);
      ASSERT_TRUE(read.ok());
      ASSERT_EQ(read.value().size(), payload.size());
      std::size_t flipped_bits = 0;
      for (std::size_t i = 0; i < payload.size(); ++i) {
        unsigned char diff = static_cast<unsigned char>(
            read.value()[i] ^ payload[i]);
        while (diff != 0) {
          flipped_bits += diff & 1u;
          diff = static_cast<unsigned char>(diff >> 1);
        }
      }
      EXPECT_LE(flipped_bits, 1u) << "seed " << seed;
    } else if (core::FileExists(path)) {
      auto read = core::ReadFileToString(path);
      ASSERT_TRUE(read.ok());
      EXPECT_LE(read.value().size(), payload.size()) << "seed " << seed;
    }
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Container corruption matrix (nn/serialize via LoadParameters)
// ---------------------------------------------------------------------------

struct ParamFixture {
  ParamFixture()
      : rng(13),
        a("layer.W", rng.GaussianMatrix(5, 7, 1.0)),
        b("layer.b", rng.GaussianMatrix(1, 7, 1.0)) {}

  std::vector<Matrix> Values() const { return {a.value, b.value}; }

  Rng rng;
  nn::Parameter a;
  nn::Parameter b;
};

// Loads `blob` written verbatim to disk into sentinel parameters and
// requires: load fails with a typed status AND the sentinels are untouched.
void ExpectRejectedWithoutSideEffects(const std::string& blob,
                                      const std::string& tag) {
  const std::string path = TempPath("corrupt_" + tag + ".wrc");
  ASSERT_TRUE(core::AtomicWriteFile(path, blob).ok());
  ParamFixture sentinel;
  const std::vector<Matrix> before = sentinel.Values();
  const Status st =
      nn::LoadParameters(path, {&sentinel.a, &sentinel.b});
  EXPECT_FALSE(st.ok()) << tag;
  EXPECT_TRUE(st.code() == StatusCode::kDataLoss ||
              st.code() == StatusCode::kInvalidArgument ||
              st.code() == StatusCode::kIOError)
      << tag << ": " << st.ToString();
  EXPECT_TRUE(MatrixBitsEqual(sentinel.a.value, before[0])) << tag;
  EXPECT_TRUE(MatrixBitsEqual(sentinel.b.value, before[1])) << tag;
  std::filesystem::remove(path);
}

std::string WriteAndReadBack(ParamFixture& fixture, const std::string& path) {
  EXPECT_TRUE(nn::SaveParameters(path, {&fixture.a, &fixture.b}).ok());
  auto blob = core::ReadFileToString(path);
  EXPECT_TRUE(blob.ok());
  return blob.ok() ? blob.value() : std::string();
}

TEST(ContainerCorruptionTest, TruncationAtEvery64ByteBoundaryIsRejected) {
  core::ScopedFaultConfig cfg(1, 0.0);
  ParamFixture fixture;
  const std::string path = TempPath("corrupt_base.wrc");
  const std::string blob = WriteAndReadBack(fixture, path);
  ASSERT_FALSE(blob.empty());
  for (std::size_t cut = 0; cut < blob.size(); cut += 64) {
    ExpectRejectedWithoutSideEffects(blob.substr(0, cut),
                                     "trunc" + std::to_string(cut));
  }
  std::filesystem::remove(path);
}

TEST(ContainerCorruptionTest, EverySingleBitFlipIsRejected) {
  core::ScopedFaultConfig cfg(1, 0.0);
  ParamFixture fixture;
  const std::string path = TempPath("corrupt_flip_base.wrc");
  const std::string blob = WriteAndReadBack(fixture, path);
  ASSERT_FALSE(blob.empty());
  // One flip per 17-byte stride keeps the sweep fast while still covering
  // header, section table, payload, and trailing CRC regions; the whole-file
  // CRC32C guarantees detection of ANY single-bit flip regardless of
  // position (Crc32cTest.DetectsEverySingleBitFlip pins the primitive).
  for (std::size_t pos = 0; pos < blob.size(); pos += 17) {
    std::string flipped = blob;
    flipped[pos] = static_cast<char>(
        static_cast<unsigned char>(flipped[pos]) ^ 0x10u);
    ExpectRejectedWithoutSideEffects(flipped, "flip" + std::to_string(pos));
  }
  std::filesystem::remove(path);
}

TEST(ContainerCorruptionTest, TrailingGarbageIsRejected) {
  core::ScopedFaultConfig cfg(1, 0.0);
  ParamFixture fixture;
  const std::string path = TempPath("corrupt_tail_base.wrc");
  const std::string blob = WriteAndReadBack(fixture, path);
  ASSERT_FALSE(blob.empty());
  ExpectRejectedWithoutSideEffects(blob + "garbage", "tail");
  std::filesystem::remove(path);
}

TEST(ContainerCorruptionTest, MissingFileIsIOErrorWithoutSideEffects) {
  core::ScopedFaultConfig cfg(1, 0.0);
  ParamFixture sentinel;
  const std::vector<Matrix> before = sentinel.Values();
  const Status st = nn::LoadParameters(TempPath("corrupt_missing.wrc"),
                                       {&sentinel.a, &sentinel.b});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_TRUE(MatrixBitsEqual(sentinel.a.value, before[0]));
  EXPECT_TRUE(MatrixBitsEqual(sentinel.b.value, before[1]));
}

TEST(ContainerCorruptionTest, SaveLoadRoundTripIsBitwise) {
  core::ScopedFaultConfig cfg(1, 0.0);
  ParamFixture fixture;
  const std::string path = TempPath("roundtrip_bits.wrc");
  ASSERT_TRUE(nn::SaveParameters(path, {&fixture.a, &fixture.b}).ok());
  ParamFixture loaded;  // same shapes, different values until loaded
  loaded.a.value.SetZero();
  loaded.b.value.SetZero();
  ASSERT_TRUE(nn::LoadParameters(path, {&loaded.a, &loaded.b}).ok());
  EXPECT_TRUE(MatrixBitsEqual(loaded.a.value, fixture.a.value));
  EXPECT_TRUE(MatrixBitsEqual(loaded.b.value, fixture.b.value));
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Full-state checkpoint round trip
// ---------------------------------------------------------------------------

TEST(CheckpointStateTest, SaveLoadRestoresEverythingBitwise) {
  core::ScopedFaultConfig cfg(1, 0.0);
  ParamFixture fixture;
  nn::Adam::Options opts;
  nn::Adam adam({&fixture.a, &fixture.b}, opts);
  // Take a few optimizer steps so the moments are non-trivial.
  for (int i = 0; i < 3; ++i) {
    fixture.a.grad = fixture.rng.GaussianMatrix(5, 7, 0.1);
    fixture.b.grad = fixture.rng.GaussianMatrix(1, 7, 0.1);
    adam.Step();
  }
  Rng stream_a(101);
  Rng stream_b(202);
  (void)stream_a.Gaussian();  // leave a cached Box-Muller deviate behind
  TrainerBookkeeping book;
  book.next_epoch = 2;
  book.best_epoch = 1;
  book.stall = 1;
  book.best_valid_ndcg20 = 0.375;
  book.total_seconds = 12.5;
  book.epochs.resize(2);
  book.epochs[0].epoch = 0;
  book.epochs[0].train_loss = 1.25;
  book.epochs[1].epoch = 1;
  book.epochs[1].valid_ndcg20 = 0.375;
  std::vector<Matrix> best = {fixture.a.value, fixture.b.value};
  std::vector<std::size_t> order = {2, 0, 3, 1};

  CheckpointRefs refs;
  refs.params = {&fixture.a, &fixture.b};
  refs.optimizer = &adam;
  refs.rngs = {{"a", &stream_a}, {"b", &stream_b}};
  refs.sample_order = &order;
  refs.book = &book;
  refs.best_params = &best;

  const std::string path = TempPath("full_state.wrc");
  ASSERT_TRUE(SaveCheckpoint(path, refs).ok());

  // Reference continuations of both streams from the saved point.
  const std::vector<Matrix> saved_values = {fixture.a.value, fixture.b.value};
  const double next_a = stream_a.Gaussian();
  const std::uint64_t next_b = stream_b.NextU64();

  // Trash every piece of live state, then restore.
  fixture.a.value.SetZero();
  fixture.b.value.SetZero();
  for (int i = 0; i < 5; ++i) {
    fixture.a.grad = fixture.rng.GaussianMatrix(5, 7, 0.1);
    fixture.b.grad = fixture.rng.GaussianMatrix(1, 7, 0.1);
    adam.Step();
  }
  (void)stream_a.NextU64();
  (void)stream_b.NextU64();
  book = TrainerBookkeeping{};
  best.clear();
  order = {0, 1, 2, 3};

  ASSERT_TRUE(LoadCheckpoint(path, refs).ok());
  EXPECT_TRUE(MatrixBitsEqual(fixture.a.value, saved_values[0]));
  EXPECT_TRUE(MatrixBitsEqual(fixture.b.value, saved_values[1]));
  EXPECT_EQ(adam.step_count(), 3);
  EXPECT_TRUE(BitsEqual(stream_a.Gaussian(), next_a));
  EXPECT_EQ(stream_b.NextU64(), next_b);
  EXPECT_EQ(book.next_epoch, 2u);
  EXPECT_EQ(book.best_epoch, 1u);
  EXPECT_EQ(book.stall, 1u);
  EXPECT_TRUE(BitsEqual(book.best_valid_ndcg20, 0.375));
  ASSERT_EQ(book.epochs.size(), 2u);
  EXPECT_TRUE(BitsEqual(book.epochs[0].train_loss, 1.25));
  ASSERT_EQ(best.size(), 2u);
  EXPECT_TRUE(MatrixBitsEqual(best[0], saved_values[0]));
  EXPECT_EQ(order, (std::vector<std::size_t>{2, 0, 3, 1}));
  std::filesystem::remove(path);
}

TEST(CheckpointStateTest, SampleOrderOfAnotherSizeIsRejected) {
  core::ScopedFaultConfig cfg(1, 0.0);
  std::vector<std::size_t> order = {1, 0, 2};
  CheckpointRefs refs;
  refs.sample_order = &order;
  const std::string path = TempPath("sample_order.wrc");
  ASSERT_TRUE(SaveCheckpoint(path, refs).ok());
  std::vector<std::size_t> live = {0, 1, 2, 3};
  CheckpointRefs wrong;
  wrong.sample_order = &live;
  EXPECT_EQ(LoadCheckpoint(path, wrong).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(live, (std::vector<std::size_t>{0, 1, 2, 3}));
  std::filesystem::remove(path);
}

TEST(CheckpointStateTest, RngStreamNameMismatchIsRejected) {
  core::ScopedFaultConfig cfg(1, 0.0);
  Rng stream(7);
  CheckpointRefs refs;
  refs.rngs = {{"shuffle", &stream}};
  const std::string path = TempPath("rng_name.wrc");
  ASSERT_TRUE(SaveCheckpoint(path, refs).ok());
  Rng other(9);
  const linalg::RngState before = other.GetState();
  CheckpointRefs wrong;
  wrong.rngs = {{"analysis", &other}};
  EXPECT_FALSE(LoadCheckpoint(path, wrong).ok());
  const linalg::RngState after = other.GetState();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(after.s[i], before.s[i]);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// CheckpointManager generations
// ---------------------------------------------------------------------------

TEST(CheckpointManagerTest, WritesPrunesAndFallsBack) {
  core::ScopedFaultConfig cfg(1, 0.0);
  const std::string dir = TempPath("mgr_generations");
  std::filesystem::remove_all(dir);
  CheckpointManager manager(dir, /*keep_generations=*/2);
  ASSERT_TRUE(manager.Init().ok());

  ParamFixture fixture;
  TrainerBookkeeping book;
  CheckpointRefs refs;
  refs.params = {&fixture.a, &fixture.b};
  refs.book = &book;

  for (std::uint64_t e = 0; e <= 3; ++e) {
    book.next_epoch = e;
    book.epochs.resize(static_cast<std::size_t>(e));
    ASSERT_TRUE(manager.WriteGeneration(refs).ok());
  }
  EXPECT_EQ(manager.ListGenerationFiles(),
            (std::vector<std::string>{"ckpt-00000002.wrc",
                                      "ckpt-00000003.wrc"}));

  // Corrupt the newest generation: the loader must fall back to the older
  // one (with a stderr warning), not crash and not load garbage.
  {
    auto blob = core::ReadFileToString(manager.GenerationPath(3));
    ASSERT_TRUE(blob.ok());
    ASSERT_TRUE(core::AtomicWriteFile(manager.GenerationPath(3),
                                      blob.value().substr(0, 40))
                    .ok());
  }
  book = TrainerBookkeeping{};
  std::string loaded_path;
  ASSERT_TRUE(manager.TryLoadLatest(refs, &loaded_path));
  EXPECT_EQ(loaded_path, manager.GenerationPath(2));
  EXPECT_EQ(book.next_epoch, 2u);

  // Corrupt both: no generation loads, the caller starts fresh.
  ASSERT_TRUE(
      core::AtomicWriteFile(manager.GenerationPath(2), "junk").ok());
  EXPECT_FALSE(manager.TryLoadLatest(refs));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointManagerTest, MissingDirectoryLoadsNothing) {
  core::ScopedFaultConfig cfg(1, 0.0);
  CheckpointManager manager(TempPath("mgr_never_created"));
  CheckpointRefs refs;
  EXPECT_FALSE(manager.TryLoadLatest(refs));
}

// ---------------------------------------------------------------------------
// Kill-and-resume training sweep
// ---------------------------------------------------------------------------

constexpr std::size_t kSweepEpochs = 3;

const data::GeneratedData& TinyData() {
  static const data::GeneratedData* data = [] {
    data::DatasetProfile p = data::ArtsProfile(0.3);
    p.plm.embed_dim = 16;
    p.plm.calibration_iters = 15;
    return new data::GeneratedData(data::GenerateDataset(p));
  }();
  return *data;
}

SasRecConfig TinyModelConfig() {
  SasRecConfig config;
  config.hidden_dim = 16;
  config.num_blocks = 1;
  config.num_heads = 2;
  config.ffn_hidden = 32;
  config.dropout = 0.1;
  config.max_len = 8;
  config.seed = 21;
  return config;
}

struct RunOutput {
  TrainResult result;
  std::vector<Matrix> params;  // final values of every learned parameter
  Matrix test_scores;          // full-catalog scores of a test batch
  EvalResult test_eval;
};

// One full training trial of `rec` from identical initial conditions. With
// `resume` and a populated `checkpoint_dir` the run continues from the
// newest loadable generation.
RunOutput FitAndCollect(TrainableRecommender* rec,
                        const std::string& checkpoint_dir, std::size_t epochs,
                        bool resume) {
  const data::Split split = data::LeaveOneOutSplit(TinyData().dataset);
  TrainConfig config;
  config.epochs = epochs;
  config.batch_size = 64;
  config.learning_rate = 2e-3;
  config.patience = 3;
  config.record_analysis = true;  // exercises SASRec's analysis RNG stream
  config.checkpoint_dir = checkpoint_dir;
  config.resume = resume;
  RunOutput out;
  out.result = rec->Fit(split, config);
  for (const nn::Parameter* p : rec->Parameters()) {
    out.params.push_back(p->value);
  }
  const std::size_t max_len = TinyModelConfig().max_len;
  out.test_scores = rec->ScoreLastPositions(
      data::MakeEvalBatches(split.test, max_len, /*batch_size=*/64)[0]);
  out.test_eval = EvaluateRanking(rec, split.test, split.train, max_len);
  return out;
}

// SASRec(ID), optionally with a custom step (the divergence tests).
RunOutput RunTraining(const std::string& checkpoint_dir, std::size_t epochs,
                      bool resume, StepFn step = {}) {
  auto rec = MakeSasRecId(TinyData().dataset, TinyModelConfig());
  if (step) rec->SetStep(std::move(step));
  return FitAndCollect(rec.get(), checkpoint_dir, epochs, resume);
}

// Bitwise comparison of everything except wall-clock timing.
void ExpectSameResult(const TrainResult& want, const TrainResult& got) {
  EXPECT_EQ(got.best_epoch, want.best_epoch);
  EXPECT_TRUE(BitsEqual(got.best_valid_ndcg20, want.best_valid_ndcg20));
  ASSERT_EQ(got.epochs.size(), want.epochs.size());
  for (std::size_t i = 0; i < want.epochs.size(); ++i) {
    EXPECT_EQ(got.epochs[i].epoch, want.epochs[i].epoch);
    EXPECT_TRUE(BitsEqual(got.epochs[i].train_loss,
                          want.epochs[i].train_loss))
        << "epoch " << i;
    EXPECT_TRUE(BitsEqual(got.epochs[i].valid_ndcg20,
                          want.epochs[i].valid_ndcg20))
        << "epoch " << i;
    EXPECT_TRUE(BitsEqual(got.epochs[i].condition_number,
                          want.epochs[i].condition_number))
        << "epoch " << i;
    EXPECT_TRUE(BitsEqual(got.epochs[i].l_align, want.epochs[i].l_align))
        << "epoch " << i;
    EXPECT_TRUE(BitsEqual(got.epochs[i].l_uniform_user,
                          want.epochs[i].l_uniform_user))
        << "epoch " << i;
    EXPECT_TRUE(BitsEqual(got.epochs[i].l_uniform_item,
                          want.epochs[i].l_uniform_item))
        << "epoch " << i;
  }
}

void ExpectSameParams(const std::vector<Matrix>& want,
                      const std::vector<Matrix>& got) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(MatrixBitsEqual(got[i], want[i])) << "param " << i;
  }
}

// One model per training family: the SASRec backbone with the plain and
// with an auxiliary-task step, a separate sequence model, a BPR model over a
// carried triple order, and a general model over a carried pair order.
std::vector<ModelFactory> TrainingFamilies() {
  const std::vector<std::string> names = {"SasRecId", "Cl4SRec", "Fdsa",
                                          "Fpmc", "Grcn"};
  std::vector<ModelFactory> families;
  for (ModelFactory& factory : AllModelFactories(TinyModelConfig())) {
    if (std::find(names.begin(), names.end(), factory.name) != names.end()) {
      families.push_back(std::move(factory));
    }
  }
  return families;
}

class TrainResumeTest : public ::testing::TestWithParam<ModelFactory> {
 protected:
  // One full training trial of a fresh model from the family's factory.
  static RunOutput Run(const std::string& checkpoint_dir, std::size_t epochs,
                       bool resume) {
    const std::unique_ptr<TrainableRecommender> rec =
        GetParam().make(TinyData().dataset);
    return FitAndCollect(rec.get(), checkpoint_dir, epochs, resume);
  }
};

// The tentpole guarantee: kill the run at EVERY epoch boundary, resume, and
// the completed run must be bitwise identical to one that never died —
// epoch logs, best-epoch tracking, final parameters, and test metrics.
// Deliberately NOT fault-pinned: under the check-faults sweep, failed saves
// and unreadable generations must degrade to extra retraining, never to a
// different result.
TEST_P(TrainResumeTest, KillAtEveryEpochBoundaryResumesBitwise) {
  const ModelFactory& family = GetParam();
  const RunOutput uninterrupted = Run("", kSweepEpochs, false);
  ASSERT_EQ(uninterrupted.result.epochs.size(), kSweepEpochs);
  for (std::size_t kill = 1; kill < kSweepEpochs; ++kill) {
    const std::string dir =
        TempPath("resume_" + family.name + "_" + std::to_string(kill));
    std::filesystem::remove_all(dir);
    // "Kill" at the epoch-`kill` boundary: run only that many epochs, then
    // abandon the process state. Only the checkpoint directory survives.
    const std::uint64_t faults_before =
        core::FaultInjector::Global().stats().injected();
    (void)Run(dir, kill, false);
    // A model that ignored checkpoint_dir would pass the comparison below
    // by retraining from scratch; the generation on disk rules that out
    // whenever no injected fault could have eaten the writes.
    if (core::FaultInjector::Global().stats().injected() == faults_before) {
      EXPECT_FALSE(CheckpointManager(dir).ListGenerationFiles().empty())
          << family.name << " left no generation after " << kill
          << " epochs";
    }
    const RunOutput resumed = Run(dir, kSweepEpochs, true);
    ExpectSameResult(uninterrupted.result, resumed.result);
    ExpectSameParams(uninterrupted.params, resumed.params);
    EXPECT_TRUE(MatrixBitsEqual(uninterrupted.test_scores,
                                resumed.test_scores));
    EXPECT_TRUE(BitsEqual(resumed.test_eval.ndcg20,
                          uninterrupted.test_eval.ndcg20));
    EXPECT_TRUE(BitsEqual(resumed.test_eval.recall50,
                          uninterrupted.test_eval.recall50));
    std::filesystem::remove_all(dir);
  }
}

// Parameters() holds everything Fit learns: saved with nn::SaveParameters
// and loaded into a fresh model from the same factory, they reproduce the
// trained model's test scores bitwise.
TEST_P(TrainResumeTest, SavedParametersReloadIntoAFreshModelBitwise) {
  core::ScopedFaultConfig cfg(1, 0.0);  // asserts successful I/O
  const ModelFactory& family = GetParam();
  const data::Split split = data::LeaveOneOutSplit(TinyData().dataset);
  const std::unique_ptr<TrainableRecommender> trained =
      family.make(TinyData().dataset);
  const RunOutput want = FitAndCollect(trained.get(), "", 3, false);
  const std::string path = TempPath("reload_" + family.name + ".wrc");
  ASSERT_TRUE(nn::SaveParameters(path, trained->Parameters()).ok());

  const std::unique_ptr<TrainableRecommender> fresh =
      family.make(TinyData().dataset);
  // Zero epochs move no parameter, but Fit reads the split as the trained
  // model's did: GRCN builds its interaction graph from it.
  TrainConfig no_epochs;
  no_epochs.epochs = 0;
  fresh->Fit(split, no_epochs);
  const std::size_t max_len = TinyModelConfig().max_len;
  const data::Batch batch =
      data::MakeEvalBatches(split.test, max_len, /*batch_size=*/64)[0];
  EXPECT_FALSE(MatrixBitsEqual(fresh->ScoreLastPositions(batch),
                               want.test_scores));
  ASSERT_TRUE(nn::LoadParameters(path, fresh->Parameters()).ok());
  EXPECT_TRUE(MatrixBitsEqual(fresh->ScoreLastPositions(batch),
                              want.test_scores));
  const EvalResult reloaded =
      EvaluateRanking(fresh.get(), split.test, split.train, max_len);
  EXPECT_TRUE(BitsEqual(reloaded.ndcg20, want.test_eval.ndcg20));
  EXPECT_TRUE(BitsEqual(reloaded.recall50, want.test_eval.recall50));
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(
    Families, TrainResumeTest, ::testing::ValuesIn(TrainingFamilies()),
    [](const ::testing::TestParamInfo<ModelFactory>& family) {
      return family.param.name;
    });

// Resuming a run that already finished must be a no-op continuation: the
// final checkpoint holds next_epoch == epochs, so zero epochs re-execute.
TEST(TrainResumeTest, ResumingACompletedRunRecomputesNothing) {
  core::ScopedFaultConfig cfg(1, 0.0);
  const std::string dir = TempPath("resume_done");
  std::filesystem::remove_all(dir);
  const RunOutput first = RunTraining(dir, kSweepEpochs, false);
  const RunOutput again = RunTraining(dir, kSweepEpochs, true);
  ExpectSameResult(first.result, again.result);
  ExpectSameParams(first.params, again.params);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Divergence rollback
// ---------------------------------------------------------------------------

// Poisons the loss of the very first optimizer step, forcing a rollback to
// the initial (pre-epoch-0) generation. After the rollback the run must be
// indistinguishable from one that never diverged.
TEST(TrainDivergenceTest, RollbackReproducesTheCleanRunBitwise) {
  core::ScopedFaultConfig cfg(1, 0.0);  // rollback needs a durable generation
  const RunOutput clean = RunTraining("", kSweepEpochs, false);
  const std::string dir = TempPath("diverge_rollback");
  std::filesystem::remove_all(dir);
  bool poisoned = false;
  StepFn step = [&poisoned](SasRecModel* model, const data::Batch& batch) {
    const double loss = model->TrainStep(batch);
    if (!poisoned) {
      poisoned = true;
      return std::numeric_limits<double>::quiet_NaN();
    }
    return loss;
  };
  const RunOutput recovered = RunTraining(dir, kSweepEpochs, false, step);
  ExpectSameResult(clean.result, recovered.result);
  ExpectSameParams(clean.params, recovered.params);
  std::filesystem::remove_all(dir);
}

// A run that diverges on every retry must stop cleanly once the rollback
// budget is spent — no crash, no NaN-poisoned epoch logs.
TEST(TrainDivergenceTest, ExhaustedRollbackBudgetStopsCleanly) {
  core::ScopedFaultConfig cfg(1, 0.0);
  const std::string dir = TempPath("diverge_budget");
  std::filesystem::remove_all(dir);
  StepFn nan_step = [](SasRecModel* model, const data::Batch& batch) {
    (void)model->TrainStep(batch);
    return std::numeric_limits<double>::quiet_NaN();
  };
  const RunOutput out = RunTraining(dir, kSweepEpochs, false, nan_step);
  EXPECT_TRUE(out.result.epochs.empty());
  for (const EpochLog& log : out.result.epochs) {
    EXPECT_TRUE(std::isfinite(log.train_loss));
  }
  std::filesystem::remove_all(dir);
}

// Without a checkpoint directory there is nothing to roll back to: the run
// must stop at the divergence instead of looping or logging NaNs.
TEST(TrainDivergenceTest, DivergenceWithoutCheckpointsStops) {
  core::ScopedFaultConfig cfg(1, 0.0);
  StepFn nan_step = [](SasRecModel* model, const data::Batch& batch) {
    (void)model->TrainStep(batch);
    return std::numeric_limits<double>::quiet_NaN();
  };
  const RunOutput out = RunTraining("", kSweepEpochs, false, nan_step);
  EXPECT_TRUE(out.result.epochs.empty());
}

}  // namespace
}  // namespace seqrec
}  // namespace whitenrec
