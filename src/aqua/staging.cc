#include "aqua/staging.hh"

#include "sim/logging.hh"

namespace aqua::core {

using namespace aqua::sim;

Tick
StagingModel::gatherTime(std::uint64_t bytes) const
{
    // The kernel reads each byte once and writes it once; both sides
    // hit HBM, halving effective bandwidth for the copy.
    double sec = 2.0 * static_cast<double>(bytes) / spec.hbmBandwidth;
    return spec.kernelLaunchOverhead + secToTicks(sec);
}

StagingEngine::StagingEngine(hw::Server &server, hw::GpuId gpu,
                             StagingEngineConfig config)
    : server(server), gpu(gpu), cfg(config),
      model(server.gpu(gpu).spec())
{
    if (cfg.slotBytes == 0 || cfg.slots == 0 ||
        cfg.coalesceThresholdBytes == 0) {
        panic("StagingEngine(gpu%d): slot size, slot count and "
              "coalescing threshold must be positive", gpu);
    }
    slotFree.assign(cfg.slots, 0);
}

StagingEngine::~StagingEngine()
{
    if (stagingRegion)
        server.gpu(gpu).hbm().free(*stagingRegion);
}

void
StagingEngine::ensureStagingBuffer()
{
    if (stagingRegion)
        return;
    stagingRegion = server.gpu(gpu).hbm().allocate(
        static_cast<std::uint64_t>(cfg.slots) * cfg.slotBytes);
    if (!stagingRegion) {
        panic("StagingEngine(gpu%d): no HBM for a %u x %llu staging "
              "buffer", gpu, cfg.slots,
              static_cast<unsigned long long>(cfg.slotBytes));
    }
}

std::vector<CopyDesc>
StagingEngine::uniformChunks(std::uint64_t bytes, std::uint64_t nChunks)
{
    std::vector<CopyDesc> descs;
    if (bytes == 0)
        return descs;
    if (nChunks == 0)
        nChunks = 1;
    std::uint64_t chunk = bytes / nChunks;
    if (chunk == 0) {
        chunk = 1;
        nChunks = bytes;
    }
    // Stride past each block so consecutive blocks never touch — the
    // shape of a paged KV layout.
    std::uint64_t stride = 2 * chunk + 4096;
    descs.reserve(nChunks);
    std::uint64_t off = 0;
    std::uint64_t left = bytes;
    for (std::uint64_t i = 0; i + 1 < nChunks; ++i) {
        descs.push_back(CopyDesc{off, chunk});
        off += stride;
        left -= chunk;
    }
    descs.push_back(CopyDesc{off, left});
    return descs;
}

std::vector<StagedTransfer>
StagingEngine::plan(const std::vector<CopyDesc> &descs) const
{
    // Pass 1: adjacent-block merging. Descriptors that are contiguous
    // in device space fold into one run; order is preserved.
    struct Run
    {
        std::uint64_t offset;
        std::uint64_t bytes;
        std::uint64_t descs;
    };
    std::vector<Run> runs;
    for (const CopyDesc &d : descs) {
        if (d.bytes == 0)
            continue;
        if (!runs.empty() &&
            runs.back().offset + runs.back().bytes == d.offset) {
            runs.back().bytes += d.bytes;
            runs.back().descs += 1;
        } else {
            runs.push_back(Run{d.offset, d.bytes, 1});
        }
    }

    // Pass 2: partition runs into wire transfers. Runs at or above
    // the coalescing threshold ship directly; the rest pack into
    // staged batches split at the slot size.
    std::vector<StagedTransfer> out;
    StagedTransfer batch;
    std::uint64_t batchFragments = 0;

    auto flush = [&] {
        if (batchFragments == 0)
            return;
        // A batch holding a single contiguous fragment needs no
        // gather kernel: it is already one flat region.
        batch.staged = batchFragments > 1;
        out.push_back(batch);
        batch = StagedTransfer{};
        batchFragments = 0;
    };

    for (const Run &r : runs) {
        if (r.bytes >= cfg.coalesceThresholdBytes) {
            // Flush first so wire order follows descriptor order.
            flush();
            out.push_back(
                StagedTransfer{r.offset, r.bytes, r.descs, false});
            continue;
        }
        std::uint64_t off = r.offset;
        std::uint64_t left = r.bytes;
        bool firstFragment = true;
        while (left > 0) {
            if (batchFragments == 0)
                batch.offset = off;
            std::uint64_t room = cfg.slotBytes - batch.bytes;
            std::uint64_t take = left < room ? left : room;
            batch.bytes += take;
            batch.descCount += firstFragment ? r.descs : 1;
            ++batchFragments;
            off += take;
            left -= take;
            firstFragment = false;
            if (batch.bytes == cfg.slotBytes)
                flush();
        }
    }
    flush();
    return out;
}

hw::TransferTiming
StagingEngine::execute(hw::GpuId peer, bool outbound,
                       const std::vector<StagedTransfer> &xfers,
                       Tick earliest)
{
    hw::Topology &topo = server.topology();
    hw::Gpu &dev = server.gpu(gpu);
    Tick base = server.simulation().now();
    if (earliest > base)
        base = earliest;

    hw::TransferTiming total{base, base};
    bool first = true;
    for (const StagedTransfer &t : xfers) {
        hw::TransferTiming copy;
        Tick ready = base;
        Tick done;
        if (t.staged) {
            ensureStagingBuffer();
            std::uint64_t slot = nextSlot++ % cfg.slots;
            if (slotFree[slot] > ready)
                ready = slotFree[slot];
            if (outbound) {
                // Gather fills the slot, then the wire drains it; the
                // next gather overlaps this drain (double buffering).
                ready = dev.submitComputeAfter(
                    ready, model.gatherTime(t.bytes));
                copy = topo.copy(gpu, peer, t.bytes, {}, ready);
                done = copy.complete;
            } else {
                copy = topo.copy(peer, gpu, t.bytes, {}, ready);
                done = dev.submitComputeAfter(
                    copy.complete, model.scatterTime(t.bytes));
            }
            slotFree[slot] = done;
            ++counters.stagedTransfers;
            counters.stagedBytes += t.bytes;
            counters.coalescedDescriptors += t.descCount;
        } else {
            copy = outbound
                       ? topo.copy(gpu, peer, t.bytes, {}, ready)
                       : topo.copy(peer, gpu, t.bytes, {}, ready);
            done = copy.complete;
            ++counters.directTransfers;
        }
        ++counters.transfers;
        counters.bytesMoved += t.bytes;
        if (copy.complete > copy.start) {
            counters.effectiveBandwidth.add(
                static_cast<double>(t.bytes) /
                ticksToSec(copy.complete - copy.start));
        }
        counters.queueLatency.add(
            static_cast<double>(copy.start - ready));
        if (first) {
            total.start = copy.start;
            first = false;
        }
        if (done > total.complete)
            total.complete = done;
    }
    return total;
}

hw::TransferTiming
StagingEngine::transferOut(hw::GpuId dst,
                           const std::vector<CopyDesc> &descs,
                           Tick earliest)
{
    return execute(dst, /*outbound=*/true, plan(descs), earliest);
}

hw::TransferTiming
StagingEngine::transferIn(hw::GpuId src,
                          const std::vector<CopyDesc> &descs,
                          Tick earliest)
{
    return execute(src, /*outbound=*/false, plan(descs), earliest);
}

hw::TransferTiming
StagingEngine::transferChunks(hw::GpuId peer, bool outbound,
                              std::uint64_t bytes, std::uint64_t nChunks,
                              bool staged, Tick earliest)
{
    if (staged && nChunks > 1) {
        std::vector<CopyDesc> descs = uniformChunks(bytes, nChunks);
        return outbound ? transferOut(peer, descs, earliest)
                        : transferIn(peer, descs, earliest);
    }
    hw::GpuId src = outbound ? gpu : peer;
    hw::GpuId dst = outbound ? peer : gpu;
    return server.topology().copyScattered(src, dst, bytes, nChunks,
                                           earliest);
}

} // namespace aqua::core
