#include "core/verify_cache.hpp"

#include <algorithm>

#include "crypto/digest.hpp"

namespace rproxy::core {

ChainVerifyCache::ChainVerifyCache(std::size_t capacity, util::Duration ttl,
                                   const RevocationRegistry* revocation)
    : capacity_(capacity), ttl_(ttl), revocation_(revocation) {}

crypto::Digest ChainVerifyCache::key_of(const ProxyChain& chain) {
  wire::Encoder enc;
  chain.encode(enc);
  return crypto::sha256(enc.view());
}

std::optional<VerifiedProxy> ChainVerifyCache::lookup(
    const crypto::Digest& key, util::TimePoint now, util::Duration max_skew) {
  std::lock_guard lock(mutex_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    misses_ += 1;
    return std::nullopt;
  }
  Entry& entry = it->second;
  if (now > entry.value.expires_at || now >= entry.cached_until) {
    // Past the chain's own expiry (full verification will reproduce the
    // exact kExpired diagnosis) or past the reuse TTL (re-derive so a
    // revoked grantor key stops being honoured).  Either way the entry is
    // dead for all future `now`s.
    lru_.erase(entry.lru);
    map_.erase(it);
    expired_drops_ += 1;
    misses_ += 1;
    return std::nullopt;
  }
  if (entry.value.mode == ProxyMode::kPublicKey &&
      entry.max_issued_at > now + max_skew) {
    // The uncached path rejects future-dated links; keep the entry (it
    // becomes valid once the clock catches up) but do not serve it.
    misses_ += 1;
    return std::nullopt;
  }
  if (revocation_ != nullptr) {
    // One atomic load in the common case: nothing anywhere has been
    // revoked since this entry's epochs were last confirmed.
    const std::uint64_t version = revocation_->version();
    if (version != entry.revocation_version) {
      if (!revocation_->epochs_current(entry.grantor_epochs)) {
        // A grantor on THIS chain was revoked against: drop the entry and
        // fall through to full verification, which re-derives ground
        // truth.  Entries for untouched grantors keep their warmth.
        lru_.erase(entry.lru);
        map_.erase(it);
        revocation_stale_drops_ += 1;
        misses_ += 1;
        return std::nullopt;
      }
      // Revocations elsewhere don't concern this chain; remember that so
      // the next lookup is back to the single atomic load.
      entry.revocation_version = version;
    }
  }
  lru_.splice(lru_.begin(), lru_, entry.lru);
  hits_ += 1;
  return entry.value;
}

void ChainVerifyCache::insert(const crypto::Digest& key,
                              const ProxyChain& chain,
                              const VerifiedProxy& verified,
                              util::TimePoint now,
                              std::uint64_t verified_version) {
  if (capacity_ == 0) return;
  util::TimePoint max_issued_at = 0;
  for (const ProxyCertificate& cert : chain.certs) {
    max_issued_at = std::max(max_issued_at, cert.issued_at);
  }
  std::vector<std::pair<PrincipalName, std::uint64_t>> grantor_epochs;
  if (revocation_ != nullptr) {
    // Every NAMED principal whose standing the verification relied on: the
    // root grantor plus intermediate identities.  Anonymous bearer links
    // have no name to track; revoking one goes through the root grantor's
    // certificate list, which bumps the root's epoch.
    std::vector<PrincipalName> grantors;
    grantors.push_back(verified.grantor);
    for (const PrincipalName& name : verified.audit_trail) {
      if (name != verified.grantor) grantors.push_back(name);
    }
    // A revocation that landed between a link's check and this snapshot
    // was not seen by the verification, yet its epoch bump would be
    // recorded here as current.  The registry bumps its version under the
    // same lock as its state, so an unchanged version proves nothing
    // landed; otherwise the outcome goes to this caller only.
    if (revocation_->snapshot_epochs(grantors, grantor_epochs) !=
        verified_version) {
      return;
    }
  }

  std::lock_guard lock(mutex_);
  auto [it, inserted] = map_.try_emplace(key);
  if (inserted) {
    lru_.push_front(key);
    it->second.lru = lru_.begin();
  } else {
    lru_.splice(lru_.begin(), lru_, it->second.lru);
  }
  it->second.value = verified;
  it->second.max_issued_at = max_issued_at;
  it->second.cached_until = now + ttl_;
  it->second.grantor_epochs = std::move(grantor_epochs);
  it->second.revocation_version = verified_version;
  while (map_.size() > capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
    evictions_ += 1;
  }
}

void ChainVerifyCache::clear() {
  std::lock_guard lock(mutex_);
  map_.clear();
  lru_.clear();
}

ChainCacheStats ChainVerifyCache::stats() const {
  std::lock_guard lock(mutex_);
  ChainCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.expired_drops = expired_drops_;
  s.revocation_stale_drops = revocation_stale_drops_;
  s.size = map_.size();
  return s;
}

IdentityCertMemo::IdentityCertMemo(std::size_t capacity)
    : capacity_(capacity) {}

crypto::Digest IdentityCertMemo::key_of(const crypto::VerifyKey& root,
                                        const pki::IdentityCert& cert) {
  wire::Encoder enc;
  enc.bytes(root.view());
  cert.encode(enc);
  return crypto::sha256(enc.view());
}

bool IdentityCertMemo::contains(const crypto::Digest& key) {
  std::lock_guard lock(mutex_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    misses_ += 1;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  hits_ += 1;
  return true;
}

void IdentityCertMemo::insert(const crypto::Digest& key) {
  std::lock_guard lock(mutex_);
  auto [it, inserted] = map_.try_emplace(key);
  if (!inserted) return;  // a concurrent miss on the same cert got here first
  lru_.push_front(key);
  it->second = lru_.begin();
  if (map_.size() > capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
  }
}

void IdentityCertMemo::clear() {
  std::lock_guard lock(mutex_);
  map_.clear();
  lru_.clear();
}

void IdentityCertMemo::add_stats(ChainCacheStats& stats) const {
  std::lock_guard lock(mutex_);
  stats.identity_hits += hits_;
  stats.identity_misses += misses_;
  stats.identity_size += map_.size();
}

}  // namespace rproxy::core
