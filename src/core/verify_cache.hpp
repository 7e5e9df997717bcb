// Verified-chain cache: the check-once/reuse-many fast path.
//
// Chain verification is a pure function of the presented octets and the
// verifier's long-term configuration: signatures, cascade MACs, ticket
// decryption and the structural rules depend on nothing else.  Re-verifying
// a byte-identical chain therefore re-derives a value already in hand.
//
// What the cache may elide is exactly that pure work, nothing else.  All
// per-presentation checks stay OUTSIDE and run on every request: possession
// proofs, challenge single-use, replay caches, accept-once identifiers, and
// restriction evaluation against the live request.
//
// Entries stay honest about expiry and revocation:
//  * a hit past the chain's own earliest expiry is dropped, and the caller
//    falls through to full verification, which reports the same kExpired
//    diagnosis the uncached path always gave;
//  * a bounded reuse TTL caps how long any outcome may be served even if
//    no revocation signal ever arrives (defence in depth, not the primary
//    revocation mechanism);
//  * when a RevocationRegistry is attached, every entry records the
//    revocation epoch of each grantor on its chain at insert time.  A
//    lookup first compares the registry's process-wide version against the
//    version recorded on the entry — one atomic load when nothing has been
//    revoked anywhere since — and re-checks the per-grantor epochs when it
//    differs.  A stale entry is dropped (counted in
//    revocation_stale_drops) and the caller falls through to full
//    verification, so a revocation takes effect on the very NEXT
//    presentation, not the next TTL boundary; entries for untouched
//    grantors stay warm.
#pragma once

#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "core/revocation.hpp"
#include "core/verifier.hpp"

namespace rproxy::core {

/// unordered_map hash for SHA-256 digests.
struct DigestHash {
  std::size_t operator()(const crypto::Digest& d) const {
    // SHA-256 output is uniform; the first eight octets are a fine hash.
    std::size_t h = 0;
    for (int i = 0; i < 8; ++i) h = (h << 8) | d[static_cast<size_t>(i)];
    return h;
  }
};

class ChainVerifyCache {
 public:
  /// `capacity` bounds the number of cached chains (LRU eviction);
  /// `ttl` bounds how long one verification outcome may be reused;
  /// `revocation` (optional) makes warm entries observe revocation events
  /// immediately instead of waiting out the TTL.
  ChainVerifyCache(std::size_t capacity, util::Duration ttl,
                   const RevocationRegistry* revocation = nullptr);

  /// Cache key: SHA-256 over the chain's deterministic wire encoding —
  /// mode, the Kerberos root (ticket + sealed authenticator) when present,
  /// and every link including its signature.  One flipped byte anywhere in
  /// the presented chain yields a different key.
  [[nodiscard]] static crypto::Digest key_of(const ProxyChain& chain);

  /// Returns the cached verification outcome, or nullopt when the caller
  /// must verify in full: unknown key, entry past the chain expiry or the
  /// reuse TTL (dropped), or a pk link dated further in the future than
  /// `max_skew` allows at `now` (kept; it may become valid later).
  [[nodiscard]] std::optional<VerifiedProxy> lookup(const crypto::Digest& key,
                                                    util::TimePoint now,
                                                    util::Duration max_skew);

  /// Remembers a successful verification of `chain`.  `verified_version`
  /// is the revocation registry's version() read BEFORE the verification
  /// began: if any revocation landed since, the outcome may have been
  /// judged against the old state, so it is not stored.
  void insert(const crypto::Digest& key, const ProxyChain& chain,
              const VerifiedProxy& verified, util::TimePoint now,
              std::uint64_t verified_version);

  void clear();

  [[nodiscard]] ChainCacheStats stats() const;

 private:
  struct Entry {
    VerifiedProxy value;
    /// Latest issuance instant along the chain — re-checked against
    /// now + max_skew on every pk-mode hit, mirroring the uncached
    /// issued-in-the-future rejection.
    util::TimePoint max_issued_at = 0;
    /// Insertion time + ttl; the chain's own expiry is checked separately
    /// against VerifiedProxy::expires_at so the boundary matches the
    /// uncached path exactly.
    util::TimePoint cached_until = 0;
    /// Revocation epoch of every grantor on the chain (root grantor plus
    /// named intermediates) as of insert time, and the registry version
    /// current when they were last confirmed.  A lookup whose version
    /// matches the registry skips the epoch walk entirely.
    std::vector<std::pair<PrincipalName, std::uint64_t>> grantor_epochs;
    std::uint64_t revocation_version = 0;
    std::list<crypto::Digest>::iterator lru;
  };

  std::size_t capacity_;
  util::Duration ttl_;
  const RevocationRegistry* revocation_;
  mutable std::mutex mutex_;
  std::list<crypto::Digest> lru_;  ///< front = most recently used
  std::unordered_map<crypto::Digest, Entry, DigestHash> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t expired_drops_ = 0;
  std::uint64_t revocation_stale_drops_ = 0;
};

/// Identity certificates whose name-server signature this verifier has
/// already checked.  Delegate identity proofs (§6) carry the grantee's
/// certificate on every request, byte for byte the same each time; the
/// issuer signature over it is a pure function of those bytes and the
/// root key, so re-checking it re-derives a value already in hand.  A hit
/// skips ONLY that signature check: the caller still checks the validity
/// window against `now`, the proof's freshness and the proof's own
/// signature.  Bounded LRU; holds digests only.
class IdentityCertMemo {
 public:
  explicit IdentityCertMemo(std::size_t capacity);

  /// SHA-256 over the root key and the certificate's complete encoding,
  /// signature included.  One flipped byte anywhere gives another key.
  [[nodiscard]] static crypto::Digest key_of(const crypto::VerifyKey& root,
                                             const pki::IdentityCert& cert);

  /// True when `key`'s issuer signature was checked before (and refreshes
  /// its LRU position).  Counts a hit or a miss.
  [[nodiscard]] bool contains(const crypto::Digest& key);

  /// Remembers a certificate whose full check succeeded.
  void insert(const crypto::Digest& key);

  void clear();

  /// Adds this memo's counters to `stats`.
  void add_stats(ChainCacheStats& stats) const;

 private:
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<crypto::Digest> lru_;  ///< front = most recently used
  std::unordered_map<crypto::Digest, std::list<crypto::Digest>::iterator,
                     DigestHash>
      map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace rproxy::core
