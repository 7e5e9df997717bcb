#include "kdc/authenticator.hpp"

namespace rproxy::kdc {

void AuthenticatorBody::encode(wire::Encoder& enc) const {
  enc.str(client);
  enc.i64(timestamp);
  enc.u64(nonce);
  enc.bytes(subkey);
  enc.seq(authorization_data,
          [](wire::Encoder& e, const util::Bytes& b) { e.bytes(b); });
}

AuthenticatorBody AuthenticatorBody::decode(wire::Decoder& dec) {
  AuthenticatorBody body;
  body.client = dec.str();
  body.timestamp = dec.i64();
  body.nonce = dec.u64();
  body.subkey = dec.bytes();
  body.authorization_data =
      dec.seq<util::Bytes>([](wire::Decoder& d) { return d.bytes(); });
  return body;
}

util::Bytes seal_authenticator(const AuthenticatorBody& body,
                               const crypto::SymmetricKey& session_key) {
  return crypto::aead_seal(
      session_key.derive_subkey(kAuthenticatorSealPurpose),
      wire::encode_to_bytes(body));
}

util::Result<AuthenticatorBody> open_authenticator(
    util::BytesView sealed, const crypto::SymmetricKey& session_key) {
  RPROXY_ASSIGN_OR_RETURN(
      util::Bytes plain,
      crypto::aead_open(session_key.derive_subkey(kAuthenticatorSealPurpose),
                        sealed));
  return wire::decode_from_bytes<AuthenticatorBody>(plain);
}

void ApRequest::encode(wire::Encoder& enc) const {
  ticket.encode(enc);
  enc.bytes(sealed_authenticator);
}

ApRequest ApRequest::decode(wire::Decoder& dec) {
  ApRequest req;
  req.ticket = Ticket::decode(dec);
  req.sealed_authenticator = dec.bytes();
  return req;
}

util::Result<ApVerified> verify_ap_request(
    const ApRequest& req, const crypto::SymmetricKey& server_key,
    util::TimePoint now, const ApVerifyOptions& options) {
  using util::ErrorCode;

  RPROXY_ASSIGN_OR_RETURN(TicketBody ticket,
                          open_ticket(req.ticket, server_key));
  if (ticket.expires_at < now) {
    return util::fail(ErrorCode::kExpired,
                      "ticket expired at " +
                          util::format_time(ticket.expires_at));
  }

  RPROXY_ASSIGN_OR_RETURN(
      AuthenticatorBody auth,
      open_authenticator(req.sealed_authenticator, ticket.session_key));
  if (auth.client != ticket.client) {
    return util::fail(ErrorCode::kProtocolError,
                      "authenticator client '" + auth.client +
                          "' does not match ticket client '" + ticket.client +
                          "'");
  }
  // Bounds on the timestamp, not |timestamp - now|: the subtraction
  // overflows for an extreme sealed timestamp.  Past this check,
  // timestamp + max_skew below cannot overflow either.
  if (auth.timestamp > now + options.max_skew ||
      auth.timestamp < now - options.max_skew) {
    return util::fail(ErrorCode::kExpired, "authenticator not fresh");
  }
  if (options.replay_cache != nullptr) {
    RPROXY_RETURN_IF_ERROR(options.replay_cache->check_and_insert(
        req.sealed_authenticator, auth.timestamp + options.max_skew, now));
  }
  return ApVerified{std::move(ticket), std::move(auth)};
}

}  // namespace rproxy::kdc
