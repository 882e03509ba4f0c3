/**
 * @file
 * Lock-free memo cache for evaluated design queries.
 *
 * A fixed-capacity, open-addressed table of atomically published
 * entries, keyed by the canonical-query FNV key (query.hh):
 * content-hash key, first-writer-wins publication, and losers of a
 * same-key race discard their duplicate — every reader thereafter
 * sees one immutable entry, so repeat queries return bit-identical
 * results by construction.
 *
 * Concurrency contract:
 *  - probe() is wait-free and allocation-free: a bounded linear scan
 *    of acquire-loaded slots. It is the only cache operation on the
 *    batch hot path (certified by mindful-analyze).
 *  - publish() allocates the entry it inserts and CASes it into the
 *    first empty slot in the probe window (release). The table never
 *    rehashes and entries are never replaced or evicted; when the
 *    window is full the result is simply not cached (the caller
 *    counts the drop) — correctness never depends on insertion.
 */

#ifndef MINDFUL_SERVE_CACHE_HH
#define MINDFUL_SERVE_CACHE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "base/compiler.hh"
#include "serve/query.hh"

namespace mindful::serve {

/** Memoized query results; see file comment for the contract. */
class MemoCache
{
  public:
    /** Slots scanned past the home slot before giving up. */
    static constexpr std::size_t kProbeWindow = 16;

    /** Default table capacity (slots; each slot is one pointer). */
    static constexpr std::size_t kDefaultCapacity = std::size_t(1) << 16;

    /** @p capacity is rounded up to a power of two (>= window). */
    explicit MemoCache(std::size_t capacity = kDefaultCapacity);
    ~MemoCache();

    MemoCache(const MemoCache &) = delete;
    MemoCache &operator=(const MemoCache &) = delete;

    std::size_t capacity() const { return _mask + 1; }

    /**
     * Hot-path lookup: the published result for @p key, or nullptr
     * on a miss. Wait-free, allocation-free, lock-free.
     */
    const QueryResult *
    probe(std::uint64_t key) const
    {
        for (std::size_t i = 0; i < kProbeWindow; ++i) {
            const std::size_t slot = (key + i) & _mask;
            const Entry *entry =
                _slots[slot].load(std::memory_order_acquire);
            if (entry == nullptr)
                return nullptr; // never-filled slot ends the chain
            if (entry->key == key)
                return &entry->result;
        }
        return nullptr;
    }

    /**
     * Publish @p result under @p key. First writer wins; a lost
     * same-key race discards the duplicate. Returns the published
     * result (ours or the winner's), or nullptr when the probe
     * window was full and the result was dropped.
     */
    const QueryResult *publish(std::uint64_t key,
                               const QueryResult &result);

    /** Entries currently published (approximate under concurrency). */
    std::size_t size() const;

  private:
    struct Entry
    {
        std::uint64_t key = 0;
        QueryResult result;
    };

    MINDFUL_ATOMIC_ROLE(publish_ptr)
    std::unique_ptr<std::atomic<const Entry *>[]> _slots;
    std::size_t _mask = 0;
};

} // namespace mindful::serve

#endif // MINDFUL_SERVE_CACHE_HH
