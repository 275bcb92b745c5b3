#include "core/serialize.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/assert.hpp"
#include "common/fs.hpp"
#include "common/text.hpp"

namespace appclass::core {

namespace {

// v2 appends a `checksum <16-hex FNV-1a-64>` footer over the whole body so
// a truncated or bit-flipped model file fails loudly at load instead of
// silently classifying with a damaged model. v1 files (no footer) are
// still readable.
constexpr std::string_view kMagic = "appclass-pipeline v2";
constexpr std::string_view kMagicV1 = "appclass-pipeline v1";

constexpr std::string_view kErrorPrefix = "pipeline deserialization: ";

}  // namespace

std::string save_pipeline(const ClassificationPipeline& pipeline) {
  APPCLASS_EXPECTS(pipeline.trained());
  std::ostringstream os;
  os.precision(17);

  const Preprocessor& pre = pipeline.preprocessor();
  const Pca& pca = pipeline.pca();
  const KnnClassifier& knn = pipeline.knn();
  const std::size_t p = pre.dimension();
  const std::size_t q = pca.components();

  os << kMagic << '\n';
  os << "metrics " << p;
  for (const auto id : pre.selected()) os << ' ' << metrics::info(id).name;
  os << '\n';
  os << "norm-mean";
  for (double v : pre.stats().mean) os << ' ' << v;
  os << "\nnorm-stddev";
  for (double v : pre.stats().stddev) os << ' ' << v;
  os << '\n';
  os << "pca " << p << ' ' << q << '\n';
  os << "pca-mean";
  for (double v : pca.mean()) os << ' ' << v;
  os << "\npca-eigenvalues";
  for (double v : pca.eigenvalues()) os << ' ' << v;
  os << '\n';
  for (std::size_t r = 0; r < p; ++r) {
    os << "pca-row";
    for (std::size_t c = 0; c < q; ++c) os << ' ' << pca.projection()(r, c);
    os << '\n';
  }
  os << "knn " << knn.training_size() << ' ' << knn.k() << " euclidean\n";
  for (std::size_t i = 0; i < knn.training_size(); ++i) {
    os << to_string(knn.training_labels()[i]);
    for (std::size_t c = 0; c < q; ++c)
      os << ' ' << knn.training_points()(i, c);
    os << '\n';
  }
  std::string body = os.str();
  common::seal_checksummed(body);
  return body;
}

ClassificationPipeline load_pipeline(const std::string& text) {
  std::istringstream is(text);
  common::TokenReader in(is, kErrorPrefix);
  std::string_view view = text;
  if (view.empty()) in.fail("empty model file");
  const bool v1 = view.rfind(kMagicV1, 0) == 0;
  if (!v1 && view.rfind(kMagic, 0) != 0) in.fail("bad magic/version header");

  // Verify the checksum footer before trusting any field.
  if (!v1) common::verify_checksummed(view, kErrorPrefix);

  std::string line;
  if (!std::getline(is, line) || (line != kMagic && line != kMagicV1))
    in.fail("bad magic/version header");

  // --- preprocessor ---
  in.expect_tag("metrics");
  const std::size_t p = in.read_size();
  if (p == 0 || p > metrics::kMetricCount) in.fail("bad metric count");
  std::vector<metrics::MetricId> selected;
  for (std::size_t i = 0; i < p; ++i) {
    std::string name;
    if (!(is >> name)) in.fail("truncated metric list");
    const auto id = metrics::find_metric(name);
    if (!id) in.fail("unknown metric '" + name + "'");
    selected.push_back(*id);
  }
  linalg::ColumnStats stats;
  in.expect_tag("norm-mean");
  for (std::size_t i = 0; i < p; ++i) stats.mean.push_back(in.read_double());
  in.expect_tag("norm-stddev");
  for (std::size_t i = 0; i < p; ++i) {
    const double sd = in.read_double();
    if (sd <= 0.0) in.fail("non-positive stddev");
    stats.stddev.push_back(sd);
  }

  // --- pca ---
  in.expect_tag("pca");
  if (in.read_size() != p) in.fail("pca dimension mismatch");
  const std::size_t q = in.read_size();
  if (q == 0 || q > p) in.fail("bad component count");
  std::vector<double> mean, eigenvalues;
  in.expect_tag("pca-mean");
  for (std::size_t i = 0; i < p; ++i) mean.push_back(in.read_double());
  in.expect_tag("pca-eigenvalues");
  for (std::size_t i = 0; i < p; ++i)
    eigenvalues.push_back(in.read_double());
  linalg::Matrix projection(p, q);
  for (std::size_t r = 0; r < p; ++r) {
    in.expect_tag("pca-row");
    for (std::size_t c = 0; c < q; ++c) projection(r, c) = in.read_double();
  }

  // --- knn ---
  in.expect_tag("knn");
  const std::size_t n = in.read_count("training point");
  const std::size_t k = in.read_size();
  // KnnClassifier asserts an odd k >= 1; a file must not reach it.
  if (k % 2 == 0) in.fail("k must be odd, got " + std::to_string(k));
  std::string metric_name;
  if (!(is >> metric_name)) in.fail("missing distance metric");
  if (metric_name != "euclidean")
    in.fail("unknown distance metric '" + metric_name + "'");
  if (n < k) in.fail("fewer training points than k");

  linalg::Matrix points(n, q);
  std::vector<ApplicationClass> labels;
  labels.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string label_name;
    if (!(is >> label_name)) in.fail("truncated training set");
    const auto label = class_from_string(label_name);
    if (!label) in.fail("unknown class '" + label_name + "'");
    labels.push_back(*label);
    for (std::size_t c = 0; c < q; ++c) points(i, c) = in.read_double();
  }

  // After the training set the only legal continuations are the checksum
  // footer (v2) or end of file (v1). Anything else is a section this
  // build does not understand — loading would silently drop state, so
  // refuse loudly instead.
  std::string trailing;
  if (is >> trailing && trailing != "checksum")
    in.fail("unknown section '" + trailing +
         "' (file written by a newer format version?)");

  KnnClassifier knn(KnnOptions{.k = k});
  knn.train(std::move(points), std::move(labels));
  return ClassificationPipeline::restore(
      Preprocessor::restore(std::move(selected), std::move(stats)),
      Pca::restore(std::move(mean), std::move(eigenvalues),
                   std::move(projection)),
      std::move(knn));
}

void save_pipeline_file(const ClassificationPipeline& pipeline,
                        const std::string& path) {
  // Write-temp + rename: a crash mid-save leaves the previous model (or
  // nothing) in place, never a truncated file that fails its checksum at
  // the next startup. Errors carry path + errno context.
  common::atomic_write_file(path, save_pipeline(pipeline));
}

ClassificationPipeline load_pipeline_file(const std::string& path) {
  std::string text;
  try {
    text = common::read_file_or_throw(path);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error("pipeline model: " + std::string(e.what()));
  }
  return load_pipeline(text);
}

}  // namespace appclass::core
