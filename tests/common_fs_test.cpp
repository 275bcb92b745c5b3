// Sequence-named files and the checksum footer shared by the WAL,
// checkpoints and model files: names parse back only in their exact
// form, listings skip foreign files, and every footer failure carries
// the caller's error prefix.
#include "common/fs.hpp"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>

namespace appclass::common {
namespace {

TEST(CommonFs, SeqFileNamesRoundTripAndRejectLookalikes) {
  EXPECT_EQ(seq_file_name("wal-", 0x2a, ".seg"), "wal-000000000000002a.seg");
  EXPECT_EQ(parse_seq_file_name("wal-000000000000002a.seg", "wal-", ".seg"),
            0x2au);
  EXPECT_EQ(parse_seq_file_name("wal-ffffffffffffffff.seg", "wal-", ".seg"),
            ~std::uint64_t{0});
  for (const char* name :
       {".", "..", "wal-.seg", "wal-000000000000002A.seg",
        "wal-00000000000002a.seg", "wal-000000000000002a.ckpt",
        "log-000000000000002a.seg", "wal-000000000000002a.seg.tmp"})
    EXPECT_FALSE(parse_seq_file_name(name, "wal-", ".seg")) << name;
}

TEST(CommonFs, ListSeqFilesSortsAndSkipsForeignFiles) {
  char tmpl[] = "/tmp/appclass_fs_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  for (const std::uint64_t seq : {17u, 3u, 256u})
    atomic_write_file(dir + "/" + seq_file_name("ck-", seq, ".c"), "x");
  atomic_write_file(dir + "/notes.txt", "x");
  atomic_write_file(dir + "/" + seq_file_name("ck-", 5, ".c") + ".tmp", "x");

  EXPECT_EQ(list_seq_files(dir, "ck-", ".c"),
            (std::vector<std::string>{dir + "/ck-0000000000000003.c",
                                      dir + "/ck-0000000000000011.c",
                                      dir + "/ck-0000000000000100.c"}));
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(list_seq_files(dir, "ck-", ".c").empty());
}

TEST(CommonFs, ChecksumFooterFailuresCarryThePrefix) {
  std::string text = "body line\n";
  seal_checksummed(text);
  EXPECT_NO_THROW(verify_checksummed(text, "p: "));

  const auto error = [](const std::string& bad) {
    try {
      verify_checksummed(bad, "p: ");
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(error("body line\n").rfind("p: missing checksum footer", 0), 0u);
  EXPECT_EQ(error(text.substr(0, text.size() - 5))
                .rfind("p: truncated checksum footer", 0),
            0u);
  std::string flipped = text;
  flipped[0] = 'B';
  EXPECT_EQ(error(flipped).rfind("p: checksum mismatch", 0), 0u);
}

}  // namespace
}  // namespace appclass::common
