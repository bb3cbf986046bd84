// Tests for the wire codec, frame rings and traffic source.

#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "net/codec.h"
#include "net/sim_nic.h"

namespace dido {
namespace {

// ------------------------------------------------------------- Codec -----

// gtest names each case by dumping the struct's bytes, so every byte is a
// member with a value. Compiler padding after `op` would leak stack and heap
// garbage into the test names and change them from build to build.
struct CodecCase {
  CodecCase(QueryOp case_op, size_t case_key_size, size_t case_value_size)
      : op(case_op), key_size(case_key_size), value_size(case_value_size) {}

  QueryOp op;
  uint8_t reserved[7] = {};
  size_t key_size;
  size_t value_size;
};
static_assert(std::has_unique_object_representations_v<CodecCase>,
              "CodecCase must have no padding bytes");

class CodecRoundTripTest : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecRoundTripTest, RequestRoundTrips) {
  const CodecCase c = GetParam();
  const std::string key(c.key_size, 'k');
  const std::string value(c.op == QueryOp::kSet ? c.value_size : 0, 'v');
  std::vector<uint8_t> buffer;
  const size_t encoded = EncodeRequest(c.op, key, value, &buffer);
  EXPECT_EQ(encoded, buffer.size());
  EXPECT_EQ(encoded, EncodedRequestSize(c.op, key.size(), c.value_size));

  size_t offset = 0;
  RequestView view;
  ASSERT_TRUE(DecodeRequest(buffer.data(), buffer.size(), &offset, &view).ok());
  EXPECT_EQ(view.op, c.op);
  EXPECT_EQ(view.key, key);
  EXPECT_EQ(view.value, value);
  EXPECT_EQ(offset, buffer.size());
}

TEST_P(CodecRoundTripTest, ResponseRoundTrips) {
  const CodecCase c = GetParam();
  const std::string key(c.key_size, 'k');
  const std::string value(c.value_size, 'v');
  std::vector<uint8_t> buffer;
  EncodeResponse(c.op, ResponseStatus::kOk, key, value, &buffer);
  size_t offset = 0;
  ResponseView view;
  ASSERT_TRUE(
      DecodeResponse(buffer.data(), buffer.size(), &offset, &view).ok());
  EXPECT_EQ(view.op, c.op);
  EXPECT_EQ(view.status, ResponseStatus::kOk);
  EXPECT_EQ(view.key, key);
  EXPECT_EQ(view.value, value);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, CodecRoundTripTest,
    ::testing::Values(CodecCase{QueryOp::kGet, 8, 0},
                      CodecCase{QueryOp::kGet, 128, 0},
                      CodecCase{QueryOp::kSet, 8, 8},
                      CodecCase{QueryOp::kSet, 16, 64},
                      CodecCase{QueryOp::kSet, 32, 256},
                      CodecCase{QueryOp::kSet, 128, 1024},
                      CodecCase{QueryOp::kDelete, 8, 0},
                      CodecCase{QueryOp::kSet, 1, 1},
                      CodecCase{QueryOp::kSet, 255, 1300}));

TEST(CodecTest, MultipleRecordsInOneBuffer) {
  std::vector<uint8_t> buffer;
  EncodeRequest(QueryOp::kGet, "key-aaaa", "", &buffer);
  EncodeRequest(QueryOp::kSet, "key-bbbb", "value", &buffer);
  EncodeRequest(QueryOp::kDelete, "key-cccc", "", &buffer);
  std::vector<RequestView> views;
  ASSERT_TRUE(DecodeAllRequests(buffer.data(), buffer.size(), &views).ok());
  ASSERT_EQ(views.size(), 3u);
  EXPECT_EQ(views[0].op, QueryOp::kGet);
  EXPECT_EQ(views[1].value, "value");
  EXPECT_EQ(views[2].op, QueryOp::kDelete);
}

TEST(CodecTest, RejectsTruncatedHeader) {
  std::vector<uint8_t> buffer;
  EncodeRequest(QueryOp::kGet, "key-aaaa", "", &buffer);
  buffer.resize(4);
  size_t offset = 0;
  RequestView view;
  EXPECT_FALSE(
      DecodeRequest(buffer.data(), buffer.size(), &offset, &view).ok());
}

TEST(CodecTest, RejectsTruncatedBody) {
  std::vector<uint8_t> buffer;
  EncodeRequest(QueryOp::kSet, "key-aaaa", "valuevalue", &buffer);
  buffer.resize(buffer.size() - 3);
  size_t offset = 0;
  RequestView view;
  EXPECT_FALSE(
      DecodeRequest(buffer.data(), buffer.size(), &offset, &view).ok());
}

TEST(CodecTest, RejectsUnknownOp) {
  std::vector<uint8_t> buffer;
  EncodeRequest(QueryOp::kGet, "key-aaaa", "", &buffer);
  buffer[0] = 77;
  size_t offset = 0;
  RequestView view;
  EXPECT_FALSE(
      DecodeRequest(buffer.data(), buffer.size(), &offset, &view).ok());
}

TEST(CodecTest, RejectsEmptyKey) {
  // Hand-craft a header with key_len = 0.
  std::vector<uint8_t> buffer(kRecordHeaderBytes, 0);
  size_t offset = 0;
  RequestView view;
  EXPECT_FALSE(
      DecodeRequest(buffer.data(), buffer.size(), &offset, &view).ok());
}

TEST(CodecTest, RejectsValueOnGet) {
  std::vector<uint8_t> buffer;
  EncodeRequest(QueryOp::kSet, "key-aaaa", "value", &buffer);
  buffer[0] = static_cast<uint8_t>(QueryOp::kGet);  // lie about the op
  size_t offset = 0;
  RequestView view;
  EXPECT_FALSE(
      DecodeRequest(buffer.data(), buffer.size(), &offset, &view).ok());
}

TEST(CodecTest, RejectsEveryHeaderBitFlip) {
  // The header checksum byte makes wire damage to the op or length fields
  // a deterministic rejection, not a lucky parse: every single-bit flip
  // anywhere in the 8-byte header must fail to decode.
  std::vector<uint8_t> pristine;
  EncodeRequest(QueryOp::kSet, "key-aaaa", "valuevalue", &pristine);
  for (size_t byte = 0; byte < kRecordHeaderBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> buffer = pristine;
      buffer[byte] ^= static_cast<uint8_t>(1u << bit);
      size_t offset = 0;
      RequestView view;
      Status status = DecodeRequest(buffer.data(), buffer.size(), &offset, &view);
      EXPECT_FALSE(status.ok())
          << "bit " << bit << " of header byte " << byte
          << " flipped but the record still decoded";
      EXPECT_EQ(offset, 0u);
    }
  }
}

TEST(CodecTest, DecodeAllFailsOnGarbageTail) {
  std::vector<uint8_t> buffer;
  EncodeRequest(QueryOp::kGet, "key-aaaa", "", &buffer);
  buffer.push_back(0xFF);  // trailing garbage
  std::vector<RequestView> views;
  EXPECT_FALSE(DecodeAllRequests(buffer.data(), buffer.size(), &views).ok());
}

// ------------------------------------------------------------ FrameRing --

TEST(FrameRingTest, FifoOrder) {
  FrameRing ring(8);
  for (uint8_t i = 0; i < 3; ++i) {
    Frame frame;
    frame.payload = {i};
    EXPECT_TRUE(ring.Push(std::move(frame)));
  }
  EXPECT_EQ(ring.size(), 3u);
  for (uint8_t i = 0; i < 3; ++i) {
    auto frame = ring.Pop();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->payload[0], i);
  }
  EXPECT_FALSE(ring.Pop().has_value());
}

TEST(FrameRingTest, DropsWhenFull) {
  FrameRing ring(2);
  EXPECT_TRUE(ring.Push(Frame{}));
  EXPECT_TRUE(ring.Push(Frame{}));
  EXPECT_FALSE(ring.Push(Frame{}));
  EXPECT_EQ(ring.dropped(), 1u);
}

TEST(FrameRingTest, DropOldestEvictsStalestFrame) {
  FrameRing ring(2, OverflowPolicy::kDropOldest);
  EXPECT_EQ(ring.policy(), OverflowPolicy::kDropOldest);
  for (uint8_t i = 0; i < 4; ++i) {
    Frame frame;
    frame.payload = {i};
    // Under drop-oldest the incoming frame is always admitted.
    EXPECT_TRUE(ring.Push(std::move(frame)));
  }
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.dropped(), 2u);  // frames 0 and 1 were evicted
  auto first = ring.Pop();
  auto second = ring.Pop();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->payload[0], 2);
  EXPECT_EQ(second->payload[0], 3);
}

TEST(FrameRingTest, DefaultPolicyIsDropNewest) {
  FrameRing ring(4);
  EXPECT_EQ(ring.policy(), OverflowPolicy::kDropNewest);
}

TEST(FrameRingTest, PopBatchRespectsLimit) {
  FrameRing ring(16);
  for (int i = 0; i < 10; ++i) ring.Push(Frame{});
  std::vector<Frame> out;
  EXPECT_EQ(ring.PopBatch(4, &out), 4u);
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(ring.size(), 6u);
}

// -------------------------------------------------------- TrafficSource --

class TrafficSourceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TrafficSourceTest, FramesFitMtuAndParse) {
  const auto [key_size, get_pct] = GetParam();
  DatasetSpec dataset;
  dataset.name = "T";
  dataset.key_size = static_cast<uint32_t>(key_size);
  dataset.value_size = static_cast<uint32_t>(key_size * 8);
  WorkloadSpec spec =
      MakeWorkload(dataset, get_pct, KeyDistribution::kUniform);
  WorkloadGenerator generator(spec, 10000, 1);
  TrafficSource source(&generator);

  size_t total_queries = 0;
  for (int i = 0; i < 50; ++i) {
    Frame frame;
    const size_t packed = source.FillFrame(&frame, nullptr);
    EXPECT_GT(packed, 0u);
    EXPECT_LE(frame.payload.size(), kMaxFramePayload);
    std::vector<RequestView> views;
    ASSERT_TRUE(DecodeAllRequests(frame.payload.data(), frame.payload.size(),
                                  &views)
                    .ok());
    EXPECT_EQ(views.size(), packed);
    for (const RequestView& view : views) {
      EXPECT_EQ(view.key.size(), dataset.key_size);
      if (view.op == QueryOp::kSet) {
        EXPECT_EQ(view.value.size(), dataset.value_size);
      }
    }
    total_queries += packed;
  }
  EXPECT_GT(total_queries, 50u);
}

INSTANTIATE_TEST_SUITE_P(KeySizesAndRatios, TrafficSourceTest,
                         ::testing::Combine(::testing::Values(8, 16, 32, 128),
                                            ::testing::Values(100, 95, 50)));

TEST(TrafficSourceTest, LargeSetRecordsStillDelivered) {
  // K128 SETs (1160 B records) barely fit one per frame; none may be lost.
  WorkloadSpec spec = MakeWorkload(DatasetK128(), 0, KeyDistribution::kUniform);
  WorkloadGenerator generator(spec, 1000, 1);
  TrafficSource source(&generator);
  size_t queries = 0;
  for (int i = 0; i < 20; ++i) {
    Frame frame;
    queries += source.FillFrame(&frame, nullptr);
    EXPECT_LE(frame.payload.size(), kMaxFramePayload);
  }
  EXPECT_EQ(queries, 20u);  // exactly one SET per frame
}

TEST(TrafficSourceTest, GetRatioRoughlyHonored) {
  WorkloadSpec spec = MakeWorkload(DatasetK8(), 95, KeyDistribution::kUniform);
  WorkloadGenerator generator(spec, 10000, 1);
  TrafficSource source(&generator);
  size_t gets = 0;
  size_t total = 0;
  for (int i = 0; i < 200; ++i) {
    Frame frame;
    source.FillFrame(&frame, nullptr);
    std::vector<RequestView> views;
    ASSERT_TRUE(DecodeAllRequests(frame.payload.data(), frame.payload.size(),
                                  &views)
                    .ok());
    for (const RequestView& view : views) {
      ++total;
      if (view.op == QueryOp::kGet) ++gets;
    }
  }
  EXPECT_NEAR(static_cast<double>(gets) / total, 0.95, 0.02);
}

TEST(TrafficSourceTest, GenerateFillsRing) {
  WorkloadSpec spec = MakeWorkload(DatasetK8(), 95, KeyDistribution::kUniform);
  WorkloadGenerator generator(spec, 10000, 1);
  TrafficSource source(&generator);
  FrameRing ring;
  size_t frames = 0;
  for (size_t queries = 0; queries < 500; ++frames) {
    Frame frame;
    queries += source.FillFrame(&frame, nullptr);
    EXPECT_TRUE(ring.Push(std::move(frame)));
  }
  EXPECT_GT(frames, 0u);
  EXPECT_EQ(ring.size(), frames);
}

}  // namespace
}  // namespace dido
