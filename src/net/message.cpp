#include "net/message.hpp"

namespace rproxy::net {

std::string_view msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kError: return "Error";
    case MsgType::kAsRequest: return "AsRequest";
    case MsgType::kAsReply: return "AsReply";
    case MsgType::kTgsRequest: return "TgsRequest";
    case MsgType::kTgsReply: return "TgsReply";
    case MsgType::kApRequest: return "ApRequest";
    case MsgType::kApReply: return "ApReply";
    case MsgType::kNameLookup: return "NameLookup";
    case MsgType::kNameReply: return "NameReply";
    case MsgType::kPresentChallengeRequest: return "PresentChallengeRequest";
    case MsgType::kPresentChallengeReply: return "PresentChallengeReply";
    case MsgType::kPresentProxy: return "PresentProxy";
    case MsgType::kAuthzRequest: return "AuthzRequest";
    case MsgType::kAuthzReply: return "AuthzReply";
    case MsgType::kGroupRequest: return "GroupRequest";
    case MsgType::kGroupReply: return "GroupReply";
    case MsgType::kAppRequest: return "AppRequest";
    case MsgType::kAppReply: return "AppReply";
    case MsgType::kCheckDeposit: return "CheckDeposit";
    case MsgType::kDepositReply: return "DepositReply";
    case MsgType::kCertifyRequest: return "CertifyRequest";
    case MsgType::kCertifyReply: return "CertifyReply";
    case MsgType::kAccountQuery: return "AccountQuery";
    case MsgType::kAccountReply: return "AccountReply";
    case MsgType::kTransferRequest: return "TransferRequest";
    case MsgType::kTransferReply: return "TransferReply";
    case MsgType::kCashierRequest: return "CashierRequest";
    case MsgType::kCashierReply: return "CashierReply";
    case MsgType::kShardMapRequest: return "ShardMapRequest";
    case MsgType::kShardMapReply: return "ShardMapReply";
    case MsgType::kReplShip: return "ReplShip";
    case MsgType::kReplShipReply: return "ReplShipReply";
    case MsgType::kReplBootstrap: return "ReplBootstrap";
    case MsgType::kReplBootstrapReply: return "ReplBootstrapReply";
    case MsgType::kSollinsVerify: return "SollinsVerify";
    case MsgType::kSollinsVerifyReply: return "SollinsVerifyReply";
    case MsgType::kPullAuthzQuery: return "PullAuthzQuery";
    case MsgType::kPullAuthzReply: return "PullAuthzReply";
    case MsgType::kPrepayDeposit: return "PrepayDeposit";
    case MsgType::kPrepayDepositReply: return "PrepayDepositReply";
    case MsgType::kRoleCreate: return "RoleCreate";
    case MsgType::kRoleCreateReply: return "RoleCreateReply";
    case MsgType::kRoleLookup: return "RoleLookup";
    case MsgType::kRoleLookupReply: return "RoleLookupReply";
  }
  return "Unknown";
}

std::size_t Envelope::wire_size() const {
  // from/to with u32 length prefixes, u16 type, u32 payload length, payload.
  return 4 + from.size() + 4 + to.size() + 2 + 4 + payload.size();
}

void encode_envelope(wire::Encoder& enc, const Envelope& e) {
  enc.reserve(e.wire_size());
  enc.str(e.from);
  enc.str(e.to);
  enc.u16(static_cast<std::uint16_t>(e.type));
  enc.bytes(e.payload);
}

Envelope decode_envelope(wire::Decoder& dec) {
  Envelope e;
  e.from = dec.str();
  e.to = dec.str();
  e.type = static_cast<MsgType>(dec.u16());
  e.payload = dec.bytes();
  return e;
}

util::Bytes encode_frame(const Envelope& e) {
  const std::size_t body = e.wire_size();
  wire::Encoder enc;
  enc.reserve(sizeof(std::uint32_t) + body);
  enc.u32(static_cast<std::uint32_t>(body));
  encode_envelope(enc, e);
  return enc.take();
}

PeeledFrame peel_frame(util::BytesView buffer) {
  if (buffer.size() < sizeof(std::uint32_t)) return {};
  const std::uint32_t len = (std::uint32_t{buffer[0]} << 24) |
                            (std::uint32_t{buffer[1]} << 16) |
                            (std::uint32_t{buffer[2]} << 8) |
                            std::uint32_t{buffer[3]};
  if (len > kMaxFrameBytes) return {PeeledFrame::Kind::kOversized, {}, 0};
  const std::size_t consumed = sizeof(std::uint32_t) + len;
  if (buffer.size() < consumed) return {};
  return {PeeledFrame::Kind::kFrame,
          buffer.subspan(sizeof(std::uint32_t), len), consumed};
}

void ErrorPayload::encode(wire::Encoder& enc) const {
  enc.u16(code);
  enc.str(message);
  enc.u64(detail);
}

ErrorPayload ErrorPayload::decode(wire::Decoder& dec) {
  ErrorPayload p;
  p.code = dec.u16();
  p.message = dec.str();
  p.detail = dec.u64();
  return p;
}

util::Status ErrorPayload::to_status() const {
  if (code == 0) return util::Status::ok();
  return util::Status(static_cast<util::ErrorCode>(code), message, detail);
}

ErrorPayload ErrorPayload::from_status(const util::Status& s) {
  ErrorPayload p;
  p.code = static_cast<std::uint16_t>(s.code());
  p.message = s.message();
  p.detail = s.detail();
  return p;
}

Envelope make_error_reply(const Envelope& req, const util::Status& status) {
  Envelope reply;
  reply.from = req.to;
  reply.to = req.from;
  reply.type = MsgType::kError;
  reply.payload = wire::encode_to_bytes(ErrorPayload::from_status(status));
  return reply;
}

util::Status status_of(const Envelope& e) {
  if (e.type != MsgType::kError) return util::Status::ok();
  wire::Decoder dec(e.payload);
  const ErrorPayload p = ErrorPayload::decode(dec);
  if (!dec.finish().is_ok()) {
    return util::fail(util::ErrorCode::kParseError,
                      "malformed error payload");
  }
  return p.to_status();
}

}  // namespace rproxy::net
