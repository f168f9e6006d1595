/**
 * @file
 * Multi-domain simulation on one event queue.
 *
 * Aqua's cluster experiments partition naturally by NVLink domain:
 * almost all events are domain-local (that is the paper's point), and
 * the rare inter-server interactions ride links whose latency floor
 * is orders of magnitude above a tick. DomainNet gives a model that
 * structure explicitly. Every domain schedules its local events on
 * the one shared EventQueue, and cross-domain interaction is a
 * *timestamped send*: the sender names a delivery tick at least
 * lookahead() in its future, and the message lands in the destination
 * domain at that tick.
 *
 * Delivery is canonical, so it does not depend on send order:
 *
 *  - all deliveries for one (domain, tick) fire in a reserved band
 *    *before* any same-tick local events (EventQueue band
 *    deliveryBand), so delivery order cannot depend on when the
 *    message was enqueued relative to local scheduling; and
 *  - same-tick deliveries fire ordered by (source domain, per-source
 *    send sequence), not in the order the sends happened.
 *
 * Together with domainRandom() this keeps each domain's event
 * sequence a function of its own state and its inbound messages —
 * the rules docs/simulation.md describes.
 */

#ifndef AQUA_SIM_DOMAIN_NET_HH
#define AQUA_SIM_DOMAIN_NET_HH

#include <cstdint>
#include <map>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/ticks.hh"

namespace aqua::sim {

/** Band cross-domain deliveries fire in: before same-tick locals. */
constexpr int deliveryBand = -1;

/**
 * The surface a multi-domain model runs against: the shared queue,
 * structurally-keyed randomness, and timestamped cross-domain sends.
 *
 * Messages accumulate per (destination, delivery tick); the first
 * message for a tick schedules one deliveryBand drain event, which
 * sorts the batch by (source domain, source sequence) and runs it.
 */
class DomainNet
{
  public:
    /**
     * @param queue The shared event queue (externally owned).
     * @param domains Domain count (>= 1).
     * @param rootSeed World seed (for domainRandom()).
     * @param minLatency Cross-domain latency floor in ticks (>= 1).
     */
    DomainNet(EventQueue &queue, std::size_t domains,
              std::uint64_t rootSeed, Tick minLatency);

    DomainNet(const DomainNet &) = delete;
    DomainNet &operator=(const DomainNet &) = delete;

    /** Number of NVLink domains. */
    std::size_t numDomains() const { return _domains; }

    /** The queue every domain schedules its local events on. */
    EventQueue &queue() { return q; }

    /**
     * Deliver @p fn into domain @p dst at tick @p deliverAt.
     *
     * Must be called from an event of domain @p src, and
     * @p deliverAt must be at least lookahead() after now(): the
     * inter-server latency floor. Violations panic.
     */
    void send(std::size_t src, std::size_t dst, Tick deliverAt,
              EventQueue::Callback fn);

    /** Minimum cross-domain latency (the inter-server link floor). */
    Tick lookahead() const { return minLatency; }

    /** Root seed of this simulated world. */
    std::uint64_t seed() const { return rootSeed; }

    /**
     * Deterministic per-domain random stream, independent of
     * construction order elsewhere.
     */
    Random
    domainRandom(std::size_t domain, std::uint32_t stream) const
    {
        return domainStream(seed(),
                            static_cast<std::uint32_t>(domain),
                            stream);
    }

    /** Total cross-domain messages sent. */
    std::uint64_t crossMessages() const { return sent; }

  private:
    struct Pending
    {
        std::size_t src;
        std::uint64_t srcSeq;
        EventQueue::Callback fn;
    };

    void drain(std::size_t dst, Tick when);

    EventQueue &q;
    std::size_t _domains;
    std::uint64_t rootSeed;
    Tick minLatency;
    /** Per destination: undelivered messages by delivery tick. */
    std::vector<std::map<Tick, std::vector<Pending>>> inbox;
    /** Per-source send sequence: the canonical same-tick tiebreak. */
    std::vector<std::uint64_t> sendSeq;
    std::uint64_t sent = 0;
};

} // namespace aqua::sim

#endif // AQUA_SIM_DOMAIN_NET_HH
