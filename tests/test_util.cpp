// Unit tests for the util library: RNG determinism and distribution
// sanity, MD5 vectors, stats, table/CSV formatting, byte round-trips,
// file writes, fingerprints.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "util/bytes.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/file.h"
#include "util/hashing.h"
#include "util/md5.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace edgestab {
namespace {

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(ES_CHECK_MSG(1 == 2, "custom " << 42), CheckError);
  try {
    ES_CHECK_MSG(false, "hello " << 7);
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("hello 7"), std::string::npos);
  }
}

TEST(Pcg32, DeterministicForSameSeed) {
  Pcg32 a(42, 3), b(42, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Pcg32, DifferentStreamsDiffer) {
  Pcg32 a(42, 1), b(42, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u32() == b.next_u32()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Pcg32, UniformInRange) {
  Pcg32 rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    int v = rng.uniform_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Pcg32, UniformIntCoversAllValues) {
  Pcg32 rng(11);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) ++counts[rng.uniform_int(5u)];
  for (int c : counts) EXPECT_GT(c, 800);
}

TEST(Pcg32, NormalMomentsApproximate) {
  Pcg32 rng(13);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.03);
  EXPECT_NEAR(s.stdev(), 1.0, 0.03);
}

TEST(Pcg32, ShuffleIsPermutation) {
  Pcg32 rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Pcg32, ForkProducesIndependentStreams) {
  Pcg32 root(5);
  Pcg32 a = root.fork(1);
  Pcg32 b = root.fork(1);  // second fork advances root state
  EXPECT_NE(a.next_u32(), b.next_u32());
}

TEST(Md5, Rfc1321Vectors) {
  EXPECT_EQ(Md5::hex(std::string("")),
            "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(Md5::hex(std::string("abc")),
            "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(Md5::hex(std::string("message digest")),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(Md5::hex(std::string(
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz012345"
                "6789")),
            "d174ab98d277d9f5a5611c2c9f419d9f");
}

TEST(Md5, IncrementalMatchesOneShot) {
  std::string msg(1000, 'x');
  Md5 h;
  h.update(msg.data(), 137);
  h.update(msg.data() + 137, msg.size() - 137);
  auto d = h.digest();
  EXPECT_EQ(to_hex(d), Md5::hex(msg));
}

TEST(RunningStats, MeanVarMinMax) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stdev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(Quantile, InterpolatesLinearly) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.125), 1.5);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 1.0, 10);
  h.add(0.05);   // bin 0
  h.add(0.95);   // bin 9
  h.add(-5.0);   // clamps to bin 0
  h.add(5.0);    // clamps to bin 9
  h.add(1.0);    // boundary clamps to last bin
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 3u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_NEAR(h.bin_fraction(9), 0.6, 1e-12);
  EXPECT_NEAR(h.bin_center(0), 0.05, 1e-12);
}

TEST(Table, RendersAlignedCells) {
  Table t({"A", "LONG_HEADER"});
  t.add_row({"x", "1"});
  t.add_separator();
  t.add_row({"yy", "2"});
  std::string s = t.str();
  EXPECT_NE(s.find("| A  | LONG_HEADER |"), std::string::npos);
  EXPECT_NE(s.find("| yy | 2           |"), std::string::npos);
}

TEST(Table, RowWidthChecked) {
  Table t({"A", "B"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::pct(0.5415, 1), "54.1%");
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::kb(2048.0, 1), "2.0");
}

TEST(Csv, EscapesSpecialCharacters) {
  CsvWriter w({"a", "b"});
  w.add_row({"plain", "has,comma"});
  w.add_row({"has\"quote", "multi\nline"});
  std::string s = w.str();
  EXPECT_NE(s.find("plain,\"has,comma\""), std::string::npos);
  EXPECT_NE(s.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Csv, WritesFile) {
  CsvWriter w({"x"});
  w.add_row({"1"});
  std::string path = "/tmp/edgestab_test_csv.csv";
  w.write_file(path);
  auto data = read_file(path);
  EXPECT_EQ(std::string(data.begin(), data.end()), "x\n1\n");
  std::filesystem::remove(path);
}

TEST(Bytes, RoundTripAllTypes) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.f32(3.25f);
  w.f64(-1.5e300);
  w.str("hello");
  w.f32_array(std::vector<float>{1.0f, -2.0f});

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_FLOAT_EQ(r.f32(), 3.25f);
  EXPECT_DOUBLE_EQ(r.f64(), -1.5e300);
  EXPECT_EQ(r.str(), "hello");
  auto arr = r.f32_array();
  ASSERT_EQ(arr.size(), 2u);
  EXPECT_FLOAT_EQ(arr[0], 1.0f);
  EXPECT_FLOAT_EQ(arr[1], -2.0f);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, TruncationThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.bytes());
  r.u8();
  EXPECT_THROW(r.u32(), CheckError);
}

TEST(Bytes, FileRoundTrip) {
  std::string path = "/tmp/edgestab_test_bytes.bin";
  Bytes data{1, 2, 3, 250};
  write_file(path, data);
  EXPECT_TRUE(file_exists(path));
  EXPECT_EQ(read_file(path), data);
  std::filesystem::remove(path);
  EXPECT_FALSE(file_exists(path));
}

TEST(File, FailedWritesCloseTheFile) {
  // /dev/full fails every write: a large one comes back short, a small
  // one only at fclose's flush. Each must still close the file.
  namespace fs = std::filesystem;
  if (!fs::exists("/dev/full") || !fs::exists("/proc/self/fd"))
    GTEST_SKIP() << "needs /dev/full and /proc/self/fd";
  auto open_fds = [] {
    return std::distance(fs::directory_iterator("/proc/self/fd"),
                         fs::directory_iterator());
  };
  const std::string big(64 * 1024, 'x');
  const auto before = open_fds();
  for (int i = 0; i < 16; ++i) {
    std::string error;
    EXPECT_FALSE(write_file("/dev/full", big, &error)) << i;
    EXPECT_EQ(error, "short write to /dev/full");
    EXPECT_FALSE(write_file("/dev/full", "x", nullptr)) << i;
  }
  EXPECT_EQ(open_fds(), before);
}

TEST(Hashing, FingerprintOrderSensitive) {
  Fingerprint a, b;
  a.add(1).add(2);
  b.add(2).add(1);
  EXPECT_NE(a.value(), b.value());
}

TEST(Hashing, FingerprintStringsDistinguished) {
  Fingerprint a, b;
  a.add(std::string("ab")).add(std::string("c"));
  b.add(std::string("a")).add(std::string("bc"));
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(a.hex().size(), 16u);
}

TEST(Hashing, Fnv1a64KnownValue) {
  // FNV-1a of empty input is the offset basis.
  EXPECT_EQ(fnv1a64(std::string("")), 0xcbf29ce484222325ULL);
}

}  // namespace
}  // namespace edgestab
