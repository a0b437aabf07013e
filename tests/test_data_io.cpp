// Tests for the .hd2/.db2-style ASCII readers and writers, CSV import, the
// .pacb stream codec, and open_dataset's file handling.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "data/format.hpp"
#include "data/io.hpp"
#include "data/synth.hpp"
#include "util/error.hpp"

namespace pac::data {
namespace {

TEST(Header, ParsesRealAndDiscrete) {
  std::istringstream in(
      "# comment line\n"
      "real height error 0.5\n"
      "\n"
      "discrete color range 4\n"
      "real weight\n");
  const Schema s = read_header(in);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.at(0).name, "height");
  EXPECT_EQ(s.at(0).kind, AttributeKind::kReal);
  EXPECT_DOUBLE_EQ(s.at(0).rel_error, 0.5);
  EXPECT_EQ(s.at(1).num_values, 4);
  EXPECT_EQ(s.at(2).name, "weight");
  EXPECT_DOUBLE_EQ(s.at(2).rel_error, 1e-2);  // default error
}

TEST(Header, TrailingCommentsIgnored) {
  std::istringstream in("real x error 0.1 # measured in metres? no: tokens\n");
  // The comment is stripped before tokenizing.
  const Schema s = read_header(in);
  EXPECT_EQ(s.at(0).name, "x");
}

TEST(Header, RejectsUnknownKind) {
  std::istringstream in("complex z\n");
  EXPECT_THROW(read_header(in), pac::Error);
}

TEST(Header, RejectsMalformedDiscrete) {
  std::istringstream bad1("discrete c\n");
  EXPECT_THROW(read_header(bad1), pac::Error);
  std::istringstream bad2("discrete c range x\n");
  EXPECT_THROW(read_header(bad2), pac::Error);
  std::istringstream bad3("discrete c range 1\n");
  EXPECT_THROW(read_header(bad3), pac::Error);
}

TEST(Header, RejectsEmptyHeader) {
  std::istringstream in("# nothing but comments\n\n");
  EXPECT_THROW(read_header(in), pac::Error);
}

TEST(Data, ParsesValuesAndMissing) {
  const Schema s({Attribute::real("x", 0.1), Attribute::discrete("c", 3)});
  std::istringstream in(
      "1.5 0\n"
      "? 2\n"
      "-3.25 ?\n"
      "# comment\n"
      "\n"
      "4 1\n");
  const Dataset d = read_data(in, s);
  ASSERT_EQ(d.num_items(), 4u);
  EXPECT_DOUBLE_EQ(d.real_value(0, 0), 1.5);
  EXPECT_TRUE(d.is_missing(1, 0));
  EXPECT_EQ(d.discrete_value(1, 1), 2);
  EXPECT_TRUE(d.is_missing(2, 1));
  EXPECT_DOUBLE_EQ(d.real_value(3, 0), 4.0);
}

TEST(Data, AcceptsCommasAsSeparators) {
  const Schema s({Attribute::real("x", 0.1), Attribute::real("y", 0.1)});
  std::istringstream in("1.0,2.0\n3.0, 4.0\n");
  const Dataset d = read_data(in, s);
  ASSERT_EQ(d.num_items(), 2u);
  EXPECT_DOUBLE_EQ(d.real_value(1, 1), 4.0);
}

TEST(Data, RejectsWrongColumnCount) {
  const Schema s({Attribute::real("x", 0.1), Attribute::real("y", 0.1)});
  std::istringstream in("1.0\n");
  EXPECT_THROW(read_data(in, s), pac::Error);
}

TEST(Data, RejectsOutOfRangeDiscrete) {
  const Schema s({Attribute::discrete("c", 2)});
  std::istringstream in("2\n");
  EXPECT_THROW(read_data(in, s), pac::Error);
}

TEST(Data, RejectsGarbageNumbers) {
  const Schema s({Attribute::real("x", 0.1)});
  std::istringstream in("12abc\n");
  EXPECT_THROW(read_data(in, s), pac::Error);
}

TEST(Data, EmptyStreamGivesEmptyDataset) {
  const Schema s({Attribute::real("x", 0.1)});
  std::istringstream in("");
  const Dataset d = read_data(in, s);
  EXPECT_EQ(d.num_items(), 0u);
}

TEST(RoundTrip, SchemaSurvivesWriteRead) {
  const Schema original({Attribute::real("a", 0.25),
                         Attribute::discrete("b", 7),
                         Attribute::real("c", 1e-3)});
  std::stringstream buffer;
  write_header(buffer, original);
  const Schema parsed = read_header(buffer);
  EXPECT_TRUE(original == parsed);
}

TEST(RoundTrip, DatasetSurvivesWriteRead) {
  // Use a generated dataset with injected missing values.
  LabeledDataset labeled = paper_dataset(200, 1);
  inject_missing(labeled.dataset, 0.1, 2);
  std::stringstream buffer;
  write_data(buffer, labeled.dataset);
  const Dataset parsed = read_data(buffer, labeled.dataset.schema());
  ASSERT_EQ(parsed.num_items(), labeled.dataset.num_items());
  for (std::size_t i = 0; i < parsed.num_items(); ++i) {
    for (std::size_t a = 0; a < parsed.num_attributes(); ++a) {
      ASSERT_EQ(parsed.is_missing(i, a), labeled.dataset.is_missing(i, a));
      if (!parsed.is_missing(i, a)) {
        ASSERT_DOUBLE_EQ(parsed.real_value(i, a),
                         labeled.dataset.real_value(i, a));
      }
    }
  }
}

TEST(RoundTrip, MixedTypesSurviveWriteRead) {
  std::vector<MixedComponent> mixture(2);
  mixture[0] = {1.0, {0.0}, {1.0}, {{0.8, 0.2}}};
  mixture[1] = {1.0, {5.0}, {0.5}, {{0.1, 0.9}}};
  const LabeledDataset labeled = mixed_mixture(mixture, 100, 3);
  std::stringstream buffer;
  write_data(buffer, labeled.dataset);
  const Dataset parsed = read_data(buffer, labeled.dataset.schema());
  for (std::size_t i = 0; i < parsed.num_items(); ++i) {
    ASSERT_DOUBLE_EQ(parsed.real_value(i, 0),
                     labeled.dataset.real_value(i, 0));
    ASSERT_EQ(parsed.discrete_value(i, 1),
              labeled.dataset.discrete_value(i, 1));
  }
}

// ---- CSV import ----

TEST(Csv, InfersColumnTypes) {
  std::istringstream in(
      "age,city,income\n"
      "25,rome,30000\n"
      "41,milan,52000.5\n"
      "33,rome,44000\n");
  const CsvResult result = read_csv(in);
  ASSERT_EQ(result.dataset.num_items(), 3u);
  ASSERT_EQ(result.dataset.num_attributes(), 3u);
  EXPECT_EQ(result.dataset.schema().at(0).kind, AttributeKind::kReal);
  EXPECT_EQ(result.dataset.schema().at(1).kind, AttributeKind::kDiscrete);
  EXPECT_EQ(result.dataset.schema().at(2).kind, AttributeKind::kReal);
  EXPECT_EQ(result.dataset.schema().at(0).name, "age");
  EXPECT_DOUBLE_EQ(result.dataset.real_value(1, 2), 52000.5);
}

TEST(Csv, DictionaryEncodesDiscreteInFirstAppearanceOrder) {
  std::istringstream in(
      "color\n"
      "red\n"
      "green\n"
      "red\n"
      "blue\n");
  const CsvResult result = read_csv(in);
  ASSERT_EQ(result.categories[0].size(), 3u);
  EXPECT_EQ(result.categories[0][0], "red");
  EXPECT_EQ(result.categories[0][1], "green");
  EXPECT_EQ(result.categories[0][2], "blue");
  EXPECT_EQ(result.dataset.discrete_value(0, 0), 0);
  EXPECT_EQ(result.dataset.discrete_value(3, 0), 2);
}

TEST(Csv, MissingValueSpellings) {
  std::istringstream in(
      "x,c\n"
      "1.0,a\n"
      "?,b\n"
      "NA,a\n"
      "3.0,NaN\n"
      ",a\n");
  const CsvResult result = read_csv(in);
  EXPECT_TRUE(result.dataset.is_missing(1, 0));
  EXPECT_TRUE(result.dataset.is_missing(2, 0));
  EXPECT_TRUE(result.dataset.is_missing(3, 1));
  EXPECT_TRUE(result.dataset.is_missing(4, 0));
  EXPECT_FALSE(result.dataset.is_missing(0, 0));
  // Missing spellings never become category labels.
  for (const auto& label : result.categories[1]) {
    EXPECT_NE(label, "NaN");
    EXPECT_NE(label, "?");
  }
}

TEST(Csv, MixedNumericAndTextColumnBecomesDiscrete) {
  std::istringstream in(
      "v\n"
      "1\n"
      "2\n"
      "oops\n");
  const CsvResult result = read_csv(in);
  EXPECT_EQ(result.dataset.schema().at(0).kind, AttributeKind::kDiscrete);
  EXPECT_EQ(result.categories[0].size(), 3u);
}

TEST(Csv, DegenerateSingleValueColumnIsPadded) {
  std::istringstream in("c\nonly\nonly\n");
  const CsvResult result = read_csv(in);
  // Discrete attributes need >= 2 symbols; a pad entry was added.
  EXPECT_GE(result.dataset.schema().at(0).num_values, 2);
  EXPECT_EQ(result.dataset.discrete_value(0, 0), 0);
}

TEST(Csv, RealErrorScalesWithColumnSpread) {
  std::istringstream in("x\n0.0\n1000.0\n2000.0\n");
  const CsvResult result = read_csv(in);
  EXPECT_GT(result.dataset.schema().at(0).rel_error, 1.0);
}

TEST(Csv, RejectsRaggedRowsAndEmptyInput) {
  std::istringstream ragged("a,b\n1,2\n3\n");
  EXPECT_THROW(read_csv(ragged), pac::Error);
  std::istringstream empty("");
  EXPECT_THROW(read_csv(empty), pac::Error);
  EXPECT_THROW(open_dataset("/nonexistent/file.csv"), pac::Error);
}

TEST(Csv, ImportedDataClustersEndToEnd) {
  // Write a CSV of the paper dataset, import it, and cluster.
  const LabeledDataset ld = paper_dataset(400, 30);
  std::stringstream csv;
  csv << "x0,x1\n";
  csv.precision(17);
  for (std::size_t i = 0; i < 400; ++i)
    csv << ld.dataset.real_value(i, 0) << ','
        << ld.dataset.real_value(i, 1) << '\n';
  const CsvResult imported = read_csv(csv);
  EXPECT_EQ(imported.dataset.schema().num_real(), 2u);
  EXPECT_EQ(imported.dataset.num_items(), 400u);
  EXPECT_DOUBLE_EQ(imported.dataset.real_value(7, 1),
                   ld.dataset.real_value(7, 1));
}

// ---- binary format ----

TEST(Binary, RoundTripsMixedDatasetExactly) {
  std::vector<MixedComponent> mix(2);
  mix[0] = {1.0, {0.0, 5.0}, {1.0, 2.0}, {{0.8, 0.2}, {0.3, 0.3, 0.4}}};
  mix[1] = {1.0, {9.0, -2.0}, {0.5, 1.0}, {{0.1, 0.9}, {0.5, 0.25, 0.25}}};
  LabeledDataset labeled = mixed_mixture(mix, 500, 21);
  inject_missing(labeled.dataset, 0.07, 22);
  std::stringstream buffer;
  format::write_pacb(buffer, labeled.dataset);
  const Dataset parsed = format::read_pacb(buffer);
  ASSERT_TRUE(parsed.schema() == labeled.dataset.schema());
  ASSERT_EQ(parsed.num_items(), 500u);
  for (std::size_t i = 0; i < 500; ++i) {
    for (std::size_t a = 0; a < parsed.num_attributes(); ++a) {
      ASSERT_EQ(parsed.is_missing(i, a), labeled.dataset.is_missing(i, a));
      if (parsed.is_missing(i, a)) continue;
      if (parsed.schema().at(a).kind == AttributeKind::kReal) {
        // Binary is bit-exact, unlike the ASCII path.
        ASSERT_EQ(parsed.real_value(i, a), labeled.dataset.real_value(i, a));
      } else {
        ASSERT_EQ(parsed.discrete_value(i, a),
                  labeled.dataset.discrete_value(i, a));
      }
    }
  }
}

TEST(Binary, EmptyDatasetRoundTrips) {
  const Dataset empty(Schema({Attribute::real("x", 0.1)}), 0);
  std::stringstream buffer;
  format::write_pacb(buffer, empty);
  const Dataset parsed = format::read_pacb(buffer);
  EXPECT_EQ(parsed.num_items(), 0u);
}

TEST(Binary, RejectsBadMagicVersionAndTruncation) {
  std::stringstream bad_magic("NOPEnonsense");
  EXPECT_THROW(format::read_pacb(bad_magic), pac::Error);

  const LabeledDataset ld = paper_dataset(50, 23);
  std::stringstream buffer;
  format::write_pacb(buffer, ld.dataset);
  const std::string valid = buffer.str();
  for (const std::size_t cut :
       {std::size_t{5}, std::size_t{20}, valid.size() / 2}) {
    std::stringstream truncated(valid.substr(0, cut));
    EXPECT_THROW(format::read_pacb(truncated), pac::Error);
  }
  // Corrupt the version field (bytes 4..7).
  std::string versioned = valid;
  versioned[4] = 99;
  std::stringstream wrong_version(versioned);
  EXPECT_THROW(format::read_pacb(wrong_version), pac::Error);
}

TEST(Binary, FileRoundTrip) {
  const LabeledDataset ld = paper_dataset(200, 24);
  const std::string path = "/tmp/pac_test_data.pacb";
  format::write_pacb_file(path, ld.dataset);
  const Dataset parsed = open_dataset(path);
  EXPECT_TRUE(parsed.resident());
  EXPECT_EQ(parsed.num_items(), 200u);
  EXPECT_EQ(parsed.real_value(199, 1), ld.dataset.real_value(199, 1));
  EXPECT_THROW(open_dataset("/nonexistent/x.pacb"), pac::Error);
}

TEST(Binary, SmallerThanAscii) {
  const LabeledDataset ld = paper_dataset(2000, 25);
  std::stringstream ascii, binary;
  write_data(ascii, ld.dataset);
  format::write_pacb(binary, ld.dataset);
  EXPECT_LT(binary.str().size(), ascii.str().size());
}

TEST(Files, MissingFileThrows) {
  EXPECT_THROW(open_dataset("/nonexistent/path.db2"), pac::Error);
  // The data file exists but its header does not: the error names it.
  const std::string data_path = "/tmp/pac_test_headerless.db2";
  write_data_file(data_path, paper_dataset(5, 8).dataset);
  OpenOptions options;
  options.header_path = "/nonexistent/path.hd2";
  try {
    (void)open_dataset(data_path, options);
    FAIL() << "missing header file accepted";
  } catch (const pac::Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "cannot open header file '/nonexistent/path.hd2'"),
              std::string::npos)
        << e.what();
  }
}

TEST(Files, WriteAndReadBack) {
  const std::string header_path = "/tmp/pac_test_header.hd2";
  const std::string data_path = "/tmp/pac_test_data.db2";
  const LabeledDataset labeled = paper_dataset(50, 9);
  write_header_file(header_path, labeled.dataset.schema());
  write_data_file(data_path, labeled.dataset);
  OpenOptions options;
  options.header_path = header_path;
  const Dataset d = open_dataset(data_path, options);
  EXPECT_EQ(d.num_items(), 50u);
  EXPECT_TRUE(d.schema() == labeled.dataset.schema());
}

}  // namespace
}  // namespace pac::data
