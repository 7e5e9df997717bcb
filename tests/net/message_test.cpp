#include "net/message.hpp"

#include <gtest/gtest.h>

namespace rproxy::net {
namespace {

TEST(ErrorPayload, RoundTripsStatus) {
  const util::Status original =
      util::fail(util::ErrorCode::kExpired, "the ticket expired");
  const ErrorPayload payload = ErrorPayload::from_status(original);
  auto decoded =
      wire::decode_from_bytes<ErrorPayload>(wire::encode_to_bytes(payload));
  ASSERT_TRUE(decoded.is_ok());
  const util::Status restored = decoded.value().to_status();
  EXPECT_EQ(restored.code(), util::ErrorCode::kExpired);
  EXPECT_EQ(restored.message(), "the ticket expired");
}

TEST(ErrorPayload, OkStatus) {
  const ErrorPayload payload = ErrorPayload::from_status(util::Status::ok());
  EXPECT_TRUE(payload.to_status().is_ok());
}

TEST(MakeErrorReply, SwapsEndpoints) {
  Envelope req;
  req.from = "client";
  req.to = "server";
  req.type = MsgType::kAppRequest;
  const Envelope reply = make_error_reply(
      req, util::fail(util::ErrorCode::kNotFound, "x"));
  EXPECT_EQ(reply.from, "server");
  EXPECT_EQ(reply.to, "client");
  EXPECT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(status_of(reply).code(), util::ErrorCode::kNotFound);
}

TEST(StatusOf, NonErrorEnvelopeIsOk) {
  Envelope e;
  e.type = MsgType::kAppReply;
  EXPECT_TRUE(status_of(e).is_ok());
}

TEST(StatusOf, MalformedErrorPayload) {
  Envelope e;
  e.type = MsgType::kError;
  e.payload = {0x01};  // truncated
  EXPECT_EQ(status_of(e).code(), util::ErrorCode::kParseError);
}

Envelope sample_envelope() {
  Envelope e;
  e.from = "client";
  e.to = "server";
  e.type = MsgType::kAppRequest;
  e.payload = {1, 2, 3, 4, 5};
  return e;
}

TEST(EnvelopeCodec, RoundTrip) {
  const Envelope e = sample_envelope();
  wire::Encoder enc;
  encode_envelope(enc, e);
  EXPECT_EQ(enc.size(), e.wire_size());
  wire::Decoder dec(enc.view());
  const Envelope decoded = decode_envelope(dec);
  EXPECT_TRUE(dec.finish().is_ok());
  EXPECT_EQ(decoded.from, e.from);
  EXPECT_EQ(decoded.to, e.to);
  EXPECT_EQ(decoded.type, e.type);
  EXPECT_EQ(decoded.payload, e.payload);
}

TEST(Frame, EncodeThenPeelRoundTrips) {
  const Envelope e = sample_envelope();
  const util::Bytes frame = encode_frame(e);
  ASSERT_EQ(frame.size(), 4 + e.wire_size());
  // Big-endian length prefix of the envelope encoding.
  EXPECT_EQ(frame[0], 0);
  EXPECT_EQ(frame[3], e.wire_size());

  const PeeledFrame peeled = peel_frame(frame);
  ASSERT_EQ(peeled.kind, PeeledFrame::Kind::kFrame);
  EXPECT_EQ(peeled.consumed, frame.size());
  wire::Decoder dec(peeled.body);
  const Envelope decoded = decode_envelope(dec);
  EXPECT_TRUE(dec.finish().is_ok());
  EXPECT_EQ(decoded.to, e.to);
  EXPECT_EQ(decoded.payload, e.payload);
}

TEST(Frame, PartialFrameIsNone) {
  const util::Bytes frame = encode_frame(sample_envelope());
  for (std::size_t n = 0; n < frame.size(); ++n) {
    EXPECT_EQ(peel_frame(util::BytesView(frame).first(n)).kind,
              PeeledFrame::Kind::kNone)
        << n << " of " << frame.size() << " octets";
  }
}

TEST(Frame, BackToBackFramesPeelInOrder) {
  Envelope second = sample_envelope();
  second.payload = {9};
  util::Bytes buffer = encode_frame(sample_envelope());
  const util::Bytes tail = encode_frame(second);
  buffer.insert(buffer.end(), tail.begin(), tail.end());

  const PeeledFrame first = peel_frame(buffer);
  ASSERT_EQ(first.kind, PeeledFrame::Kind::kFrame);
  const PeeledFrame next =
      peel_frame(util::BytesView(buffer).subspan(first.consumed));
  ASSERT_EQ(next.kind, PeeledFrame::Kind::kFrame);
  EXPECT_EQ(first.consumed + next.consumed, buffer.size());
  wire::Decoder dec(next.body);
  EXPECT_EQ(decode_envelope(dec).payload, second.payload);
}

TEST(Frame, LengthPastTheCapIsOversized) {
  const auto prefix = [](std::uint32_t len) {
    return util::Bytes{static_cast<std::uint8_t>(len >> 24),
                       static_cast<std::uint8_t>(len >> 16),
                       static_cast<std::uint8_t>(len >> 8),
                       static_cast<std::uint8_t>(len)};
  };
  const auto cap = static_cast<std::uint32_t>(kMaxFrameBytes);
  EXPECT_EQ(peel_frame(prefix(cap)).kind, PeeledFrame::Kind::kNone);
  EXPECT_EQ(peel_frame(prefix(cap + 1)).kind, PeeledFrame::Kind::kOversized);
  EXPECT_EQ(peel_frame(prefix(0xFFFFFFFFu)).kind,
            PeeledFrame::Kind::kOversized);
}

TEST(MsgTypeNames, NewTypesNamed) {
  EXPECT_EQ(msg_type_name(MsgType::kCashierRequest), "CashierRequest");
  EXPECT_EQ(msg_type_name(MsgType::kRoleCreate), "RoleCreate");
  EXPECT_EQ(msg_type_name(MsgType::kRoleLookupReply), "RoleLookupReply");
}

}  // namespace
}  // namespace rproxy::net
