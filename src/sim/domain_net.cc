#include "sim/domain_net.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace aqua::sim {

DomainNet::DomainNet(EventQueue &queue, std::size_t domains,
                     std::uint64_t rootSeed, Tick minLatency)
    : q(queue), _domains(domains), rootSeed(rootSeed),
      minLatency(minLatency), inbox(domains), sendSeq(domains, 0)
{
    if (domains == 0)
        panic("DomainNet: need at least one domain");
    if (minLatency == 0)
        panic("DomainNet: lookahead must be >= 1 tick");
}

void
DomainNet::send(std::size_t src, std::size_t dst, Tick deliverAt,
                EventQueue::Callback fn)
{
    if (src >= _domains || dst >= _domains)
        panic("send: bad domain %zu -> %zu", src, dst);
    if (deliverAt < q.now() + minLatency) {
        panic("send violates lookahead: deliver=%llu now=%llu "
              "lookahead=%llu",
              static_cast<unsigned long long>(deliverAt),
              static_cast<unsigned long long>(q.now()),
              static_cast<unsigned long long>(minLatency));
    }
    auto &byTick = inbox[dst];
    auto it = byTick.find(deliverAt);
    if (it == byTick.end()) {
        it = byTick.emplace(deliverAt, std::vector<Pending>{}).first;
        q.schedule(deliverAt, deliveryBand,
                   [this, dst, deliverAt] { drain(dst, deliverAt); });
    }
    it->second.push_back(Pending{src, sendSeq[src]++, std::move(fn)});
    ++sent;
}

void
DomainNet::drain(std::size_t dst, Tick when)
{
    auto &byTick = inbox[dst];
    auto it = byTick.find(when);
    if (it == byTick.end())
        panic("mailbox drain with no pending messages");
    // Move the batch out before running: a delivered callback may
    // send again (to a strictly later tick) without invalidating the
    // iteration.
    std::vector<Pending> batch = std::move(it->second);
    byTick.erase(it);
    // Canonical same-tick order: (src, srcSeq), not send order.
    std::stable_sort(batch.begin(), batch.end(),
                     [](const Pending &a, const Pending &b) {
                         if (a.src != b.src)
                             return a.src < b.src;
                         return a.srcSeq < b.srcSeq;
                     });
    for (Pending &p : batch)
        p.fn();
}

} // namespace aqua::sim
