#include "gpu/gpu_config.hh"

#include <functional>
#include <utility>

#include "common/intmath.hh"
#include "common/key_builder.hh"
#include "common/log.hh"

namespace bwsim
{

CacheParams
GpuConfig::l1dParams() const
{
    CacheParams p;
    p.name = "l1d";
    p.sizeBytes = l1dSizeBytes;
    p.lineBytes = lineBytes;
    p.assoc = l1dAssoc;
    p.writePolicy = WritePolicy::WriteEvict;
    p.mshrEntries = l1dMshrEntries;
    p.mshrMaxMerge = l1dMshrMerge;
    p.missQueueEntries = l1dMissQueue;
    p.respQueueEntries = 0;
    p.hitLatency = l1dHitLatency;
    p.portBytesPerCycle = 0;
    p.bypassReads = l1BypassReads;
    p.sectorBytes = sectorBytes;
    return p;
}

CacheParams
GpuConfig::l1iParams() const
{
    CacheParams p;
    p.name = "l1i";
    p.sizeBytes = l1iSizeBytes;
    p.lineBytes = lineBytes;
    p.assoc = l1iAssoc;
    p.writePolicy = WritePolicy::ReadOnly;
    p.mshrEntries = l1iMshrEntries;
    p.mshrMaxMerge = 8;
    p.missQueueEntries = l1iMissQueue;
    p.respQueueEntries = 0;
    p.hitLatency = 1;
    p.portBytesPerCycle = 0;
    return p;
}

CacheParams
GpuConfig::l2BankParams() const
{
    CacheParams p;
    p.name = "l2bank";
    p.sizeBytes = l2TotalSizeBytes / totalL2Banks();
    p.lineBytes = lineBytes;
    p.assoc = l2Assoc;
    p.writePolicy = WritePolicy::WriteBack;
    p.mshrEntries = l2MshrEntries;
    p.mshrMaxMerge = l2MshrMerge;
    p.missQueueEntries = l2MissQueue;
    p.respQueueEntries = l2RespQueue;
    p.hitLatency = l2HitLatency;
    p.portBytesPerCycle = l2PortBytes;
    p.indexDivisor = totalL2Banks();
    p.sectorBytes = sectorBytes;
    return p;
}

DramParams
GpuConfig::dramParams() const
{
    DramParams p;
    p.timing = dramTiming;
    p.numBanks = dramBanks;
    p.rowBytes = dramRowBytes;
    p.busBytesPerCycle = dramBusBytesPerCycle;
    p.lineBytes = lineBytes;
    p.schedQueueEntries = dramSchedQueue;
    p.returnQueueEntries = dramReturnQueue;
    p.returnPipeLatency = dramReturnPipeLatency;
    p.numPartitions = numPartitions;
    return p;
}

NetworkParams
GpuConfig::reqNetParams() const
{
    NetworkParams p;
    p.name = "req";
    p.numSources = static_cast<std::uint32_t>(numCores);
    p.numDests = totalL2Banks();
    p.flitBytes = reqFlitBytes;
    p.injQueuePackets = injQueuePackets;
    p.ejQueuePackets = reqEjQueuePackets;
    p.transitLatency = icntTransitLatency;
    return p;
}

NetworkParams
GpuConfig::replyNetParams() const
{
    NetworkParams p;
    p.name = "reply";
    p.numSources = totalL2Banks();
    p.numDests = static_cast<std::uint32_t>(numCores);
    p.flitBytes = replyFlitBytes;
    p.injQueuePackets = injQueuePackets;
    p.ejQueuePackets = coreRespFifo;
    p.transitLatency = icntTransitLatency;
    return p;
}

PartitionParams
GpuConfig::partitionParams(int partition_id) const
{
    PartitionParams p;
    p.partitionId = partition_id;
    p.banksPerPartition = l2BanksPerPartition;
    p.numPartitions = numPartitions;
    p.l2Bank = l2BankParams();
    p.accessQueueEntries = l2AccessQueue;
    p.ropLatency = ropLatency;
    p.dram = dramParams();
    p.interleave = l2Interleave;
    p.idealDram = (mode == MemoryMode::IdealDram);
    // idealDramLatency is in core cycles; the partition pipe runs in
    // L2 cycles.
    double ratio = icntClockMhz / coreClockMhz;
    p.idealDramLatency = static_cast<std::uint32_t>(
        idealDramLatency * ratio + 0.5);
    return p;
}

CoreParams
GpuConfig::coreParams(int core_id) const
{
    CoreParams p;
    p.coreId = core_id;
    p.maxWarps = maxWarpsPerCore;
    p.numSchedulers = numSchedulers;
    p.ibufferEntries = ibufferEntries;
    p.fetchWidth = fetchWidth;
    p.memPipelineWidth = memPipelineWidth;
    p.aluIssuePerCycle = aluIssuePerCycle;
    p.aluInflightCap = aluInflightCap;
    p.sfuInflightCap = sfuInflightCap;
    p.sched = schedPolicy;
    p.l1d = l1dParams();
    p.l1i = l1iParams();
    p.corePeriodPs = 1e6 / coreClockMhz;
    return p;
}

AddressMap
GpuConfig::addressMap() const
{
    return AddressMap(numPartitions, l2BanksPerPartition, lineBytes,
                      l2Interleave);
}

void
GpuConfig::validate() const
{
    if (!isPowerOf2(lineBytes))
        fatal("config '%s': line size %u not a power of two", name.c_str(),
              lineBytes);
    if (sectorBytes != 0 &&
        (!isPowerOf2(sectorBytes) || lineBytes % sectorBytes != 0)) {
        fatal("config '%s': sector size %u must be a power of two "
              "dividing the %u-byte line",
              name.c_str(), sectorBytes, lineBytes);
    }
    // The shapes the engine can run: cores, warps, L2 banks and DRAM
    // banks index 64-bit masks, the I-buffer depth is a uint8_t count,
    // and every queue, MSHR table and flit must hold at least one.
    auto need = [this](bool ok, const char *field, long long value,
                       const char *range) {
        if (!ok) {
            fatal("config '%s': %s = %lld, must be %s", name.c_str(),
                  field, value, range);
        }
    };
    need(numCores >= 1 && numCores <= 64, "numCores", numCores, "in 1..64");
    need(maxWarpsPerCore >= 1 && maxWarpsPerCore <= 64, "maxWarpsPerCore",
         maxWarpsPerCore, "in 1..64");
    need(numSchedulers >= 1, "numSchedulers", numSchedulers, ">= 1");
    need(fetchWidth >= 1, "fetchWidth", fetchWidth, ">= 1");
    need(memPipelineWidth >= 1, "memPipelineWidth", memPipelineWidth,
         ">= 1");
    need(ibufferEntries >= 1 && ibufferEntries <= 255, "ibufferEntries",
         ibufferEntries, "in 1..255");
    need(numPartitions >= 1, "numPartitions", numPartitions, ">= 1");
    need(l2BanksPerPartition >= 1, "l2BanksPerPartition",
         l2BanksPerPartition, ">= 1");
    need(l2Assoc >= 1, "l2Assoc", l2Assoc, ">= 1");
    const long long l2_banks =
        static_cast<long long>(numPartitions) * l2BanksPerPartition;
    need(l2_banks <= 64, "totalL2Banks", l2_banks, "<= 64");
    need(dramBanks >= 1 && dramBanks <= 64, "dramBanks", dramBanks,
         "in 1..64");
    need(dramBusBytesPerCycle >= 1, "dramBusBytesPerCycle",
         dramBusBytesPerCycle, ">= 1");
    need(dramRowBytes >= lineBytes, "dramRowBytes", dramRowBytes,
         ">= lineBytes");
    // A dirty eviction queues its fetch and writeback together, and
    // one fill moves every waiter on the line into the response
    // queue at once: smaller queues refuse those forever.
    need(l2MissQueue >= 2, "l2MissQueue", l2MissQueue, ">= 2");
    need(l2MshrMerge >= 1, "l2MshrMerge", l2MshrMerge, ">= 1");
    need(l2RespQueue >= l2MshrMerge, "l2RespQueue", l2RespQueue,
         ">= l2MshrMerge");
    const std::pair<const char *, std::uint32_t> at_least_one[] = {
        {"l2AccessQueue", l2AccessQueue},
        {"l2MshrEntries", l2MshrEntries},
        {"dramSchedQueue", dramSchedQueue},
        {"dramReturnQueue", dramReturnQueue},
        {"injQueuePackets", injQueuePackets},
        {"coreRespFifo", coreRespFifo},
        {"reqEjQueuePackets", reqEjQueuePackets},
        {"reqFlitBytes", reqFlitBytes},
        {"replyFlitBytes", replyFlitBytes},
    };
    for (const auto &[field, value] : at_least_one)
        need(value >= 1, field, value, ">= 1");
    if (l2TotalSizeBytes % (std::uint64_t(totalL2Banks()) * lineBytes *
                            l2Assoc) != 0) {
        fatal("config '%s': L2 size does not divide across %u banks",
              name.c_str(), totalL2Banks());
    }
}

GpuConfig
GpuConfig::baseline()
{
    GpuConfig c;
    c.name = "baseline";
    return c;
}

void
GpuConfig::applyScaleL1(unsigned f)
{
    l1dMissQueue *= f;
    l1dMshrEntries *= f;
    memPipelineWidth *= f;
}

void
GpuConfig::applyScaleL2(unsigned f)
{
    l2MissQueue *= f;
    l2RespQueue *= f;
    l2MshrEntries *= f;
    l2AccessQueue *= f;
    l2PortBytes *= f;
    reqFlitBytes *= f;
    replyFlitBytes *= f;
    l2BanksPerPartition *= f; // 12 banks -> 48 banks
}

void
GpuConfig::applyScaleDram(unsigned f)
{
    dramSchedQueue *= f;
    dramBanks *= f;
    dramBusBytesPerCycle *= f; // 384-bit -> 1536-bit bus
}

void
GpuConfig::applyCostEffectiveBuffers()
{
    // Table III "Cost-effective" column: Type '=' buffers to 32,
    // L1 MSHRs to 48, memory pipeline width to 40; MSHRs at L2, the
    // L2 data port, bank counts and all DRAM parameters stay baseline.
    l2MissQueue = 32;
    l2RespQueue = 32;
    l2AccessQueue = 32;
    l1dMissQueue = 32;
    l1dMshrEntries = 48;
    memPipelineWidth = 40;
}

GpuConfig
GpuConfig::scaledL1()
{
    GpuConfig c;
    c.name = "L1";
    c.applyScaleL1();
    return c;
}

GpuConfig
GpuConfig::scaledL2()
{
    GpuConfig c;
    c.name = "L2";
    c.applyScaleL2();
    return c;
}

GpuConfig
GpuConfig::scaledDram()
{
    GpuConfig c;
    c.name = "DRAM";
    c.applyScaleDram();
    return c;
}

GpuConfig
GpuConfig::scaledL1L2()
{
    GpuConfig c;
    c.name = "L1+L2";
    c.applyScaleL1();
    c.applyScaleL2();
    return c;
}

GpuConfig
GpuConfig::scaledL2Dram()
{
    GpuConfig c;
    c.name = "L2+DRAM";
    c.applyScaleL2();
    c.applyScaleDram();
    return c;
}

GpuConfig
GpuConfig::scaledAll()
{
    GpuConfig c;
    c.name = "All";
    c.applyScaleL1();
    c.applyScaleL2();
    c.applyScaleDram();
    return c;
}

GpuConfig
GpuConfig::hbm()
{
    GpuConfig c = scaledDram();
    c.name = "HBM";
    return c;
}

GpuConfig
GpuConfig::costEffective16_48()
{
    GpuConfig c;
    c.name = "16+48";
    c.applyCostEffectiveBuffers();
    c.reqFlitBytes = 16;
    c.replyFlitBytes = 48;
    return c;
}

GpuConfig
GpuConfig::costEffective16_68()
{
    GpuConfig c;
    c.name = "16+68";
    c.applyCostEffectiveBuffers();
    c.reqFlitBytes = 16;
    c.replyFlitBytes = 68;
    return c;
}

GpuConfig
GpuConfig::costEffective32_52()
{
    GpuConfig c;
    c.name = "32+52";
    c.applyCostEffectiveBuffers();
    c.reqFlitBytes = 32;
    c.replyFlitBytes = 52;
    return c;
}

GpuConfig
GpuConfig::l1Bypass()
{
    GpuConfig c;
    c.name = "L1-bypass";
    c.l1BypassReads = true;
    return c;
}

GpuConfig
GpuConfig::l2Sectored()
{
    GpuConfig c;
    c.name = "L2-sectored";
    c.sectorBytes = 32;
    return c;
}

GpuConfig
GpuConfig::l2Decoupled()
{
    // 24 L2 banks over the same 6 DRAM partitions, addressed on the
    // bank-first interleave: the bank count is a free knob, no longer
    // 2x the partition count.
    GpuConfig c;
    c.name = "L2-decoupled";
    c.l2BanksPerPartition = 4;
    c.l2Interleave = L2Interleave::BankFirst;
    return c;
}

GpuConfig
GpuConfig::perfectMem()
{
    GpuConfig c;
    c.name = "P-inf";
    c.mode = MemoryMode::PerfectMem;
    return c;
}

GpuConfig
GpuConfig::idealDram()
{
    GpuConfig c;
    c.name = "P-DRAM";
    c.mode = MemoryMode::IdealDram;
    return c;
}

GpuConfig
GpuConfig::fixedL1Lat(std::uint32_t latency_cycles)
{
    GpuConfig c;
    c.name = csprintf("fixed-%u", latency_cycles);
    c.mode = MemoryMode::FixedL1Lat;
    c.fixedL1MissLatency = latency_cycles;
    return c;
}

namespace
{

/** The fixed presets, keyed by the name each factory stamps on its
 *  config (what SimResult::config and the tables print). */
const std::vector<std::pair<std::string, GpuConfig (*)()>> &
presetFactories()
{
    static const std::vector<std::pair<std::string, GpuConfig (*)()>>
        factories = {
            {"baseline", &GpuConfig::baseline},
            {"L1", &GpuConfig::scaledL1},
            {"L2", &GpuConfig::scaledL2},
            {"DRAM", &GpuConfig::scaledDram},
            {"L1+L2", &GpuConfig::scaledL1L2},
            {"L2+DRAM", &GpuConfig::scaledL2Dram},
            {"All", &GpuConfig::scaledAll},
            {"HBM", &GpuConfig::hbm},
            {"16+48", &GpuConfig::costEffective16_48},
            {"16+68", &GpuConfig::costEffective16_68},
            {"32+52", &GpuConfig::costEffective32_52},
            {"L1-bypass", &GpuConfig::l1Bypass},
            {"L2-sectored", &GpuConfig::l2Sectored},
            {"L2-decoupled", &GpuConfig::l2Decoupled},
            {"P-inf", &GpuConfig::perfectMem},
            {"P-DRAM", &GpuConfig::idealDram},
        };
    return factories;
}

} // anonymous namespace

bool
findConfigPreset(const std::string &name, GpuConfig &out)
{
    for (const auto &[preset_name, factory] : presetFactories()) {
        if (preset_name == name) {
            out = factory();
            return true;
        }
    }
    // The Fig. 3 sweep family: "fixed-<latency>". Strict decimal with
    // an explicit range check -- out-of-range input is an unknown
    // preset, never a silently wrapped latency.
    const std::string prefix = "fixed-";
    if (name.rfind(prefix, 0) == 0) {
        const std::string digits = name.substr(prefix.size());
        if (!digits.empty() && digits.size() <= 10 &&
            digits.find_first_not_of("0123456789") == std::string::npos) {
            std::uint64_t v = 0;
            for (char c : digits)
                v = v * 10 + static_cast<unsigned>(c - '0');
            if (v <= 0xffffffffULL) {
                out = GpuConfig::fixedL1Lat(
                    static_cast<std::uint32_t>(v));
                return true;
            }
        }
    }
    return false;
}

std::vector<std::string>
configPresetNames()
{
    std::vector<std::string> names;
    for (const auto &[preset_name, factory] : presetFactories())
        names.push_back(preset_name);
    names.push_back("fixed-<N>");
    return names;
}

#if defined(__GLIBCXX__) && defined(__x86_64__) && _GLIBCXX_USE_CXX11_ABI
// Trip-wire for cacheKey() completeness: growing GpuConfig trips this
// assert, forcing the new field to be considered for the key below
// (and the size here updated). Gated to one ABI (new-ABI libstdc++ on
// x86-64) so other platforms with different padding still build.
static_assert(sizeof(GpuConfig) == 328,
              "GpuConfig changed: add the new field to cacheKey(), or "
              "the SimCache conflates configs differing only in it, "
              "and update this size");
#endif

std::string
GpuConfig::cacheKey() const
{
    // Every knob that reaches the simulator must appear here; a field
    // added to GpuConfig without a key entry would make the SimCache
    // return stale results for configs differing only in that field.
    KeyBuilder kb(256);
    auto addU = [&kb](std::uint64_t v) { kb.addU(v); };
    auto addI = [&kb](long long v) { kb.addI(v); };
    auto addF = [&kb](double v) { kb.addF(v); };

    kb.addStr(name);
    addF(coreClockMhz);
    addF(icntClockMhz);
    addF(dramClockMhz);
    addI(numCores);
    addI(maxWarpsPerCore);
    addI(numSchedulers);
    addI(ibufferEntries);
    addI(fetchWidth);
    addI(memPipelineWidth);
    addI(aluIssuePerCycle);
    addI(aluInflightCap);
    addI(sfuInflightCap);
    addU(static_cast<std::uint64_t>(schedPolicy));
    addU(l1dSizeBytes);
    addU(l1dAssoc);
    addU(lineBytes);
    addU(l1dMshrEntries);
    addU(l1dMshrMerge);
    addU(l1dMissQueue);
    addU(l1dHitLatency);
    addU(l1iSizeBytes);
    addU(l1iAssoc);
    addU(l1iMshrEntries);
    addU(l1iMissQueue);
    addU(reqFlitBytes);
    addU(replyFlitBytes);
    addU(injQueuePackets);
    addU(coreRespFifo);
    addU(reqEjQueuePackets);
    addU(icntTransitLatency);
    addU(numPartitions);
    addU(l2BanksPerPartition);
    addU(l2TotalSizeBytes);
    addU(l2Assoc);
    addU(l2MshrEntries);
    addU(l2MshrMerge);
    addU(l2MissQueue);
    addU(l2RespQueue);
    addU(l2AccessQueue);
    addU(l2PortBytes);
    addU(l2HitLatency);
    addU(ropLatency);
    addU(dramTiming.tCCD);
    addU(dramTiming.tRRD);
    addU(dramTiming.tRCD);
    addU(dramTiming.tRAS);
    addU(dramTiming.tRP);
    addU(dramTiming.tRC);
    addU(dramTiming.CL);
    addU(dramTiming.WL);
    addU(dramTiming.tCDLR);
    addU(dramTiming.tWR);
    addU(dramBanks);
    addU(dramRowBytes);
    addU(dramBusBytesPerCycle);
    addU(dramSchedQueue);
    addU(dramReturnQueue);
    addU(dramReturnPipeLatency);
    addU(l1BypassReads ? 1 : 0);
    addU(sectorBytes);
    addU(static_cast<std::uint64_t>(l2Interleave));
    addU(static_cast<std::uint64_t>(mode));
    addU(fixedL1MissLatency);
    addU(perfectL2Latency);
    addU(perfectDramLatency);
    addU(idealDramLatency);
    addU(maxCoreCycles);
    return std::move(kb).str();
}

bool
GpuConfig::operator==(const GpuConfig &o) const
{
    return cacheKey() == o.cacheKey();
}

std::size_t
GpuConfig::Hash::operator()(const GpuConfig &c) const
{
    return std::hash<std::string>{}(c.cacheKey());
}

} // namespace bwsim
