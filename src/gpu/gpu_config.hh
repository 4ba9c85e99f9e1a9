/**
 * @file
 * GpuConfig: every architectural knob of the modelled GTX 480
 * (Table I) and the design-space presets of Table III.
 *
 * Preset families:
 *  - baseline()                 Table I;
 *  - scaledL1/L2/Dram()         the 4x "Scaled value" column, alone;
 *  - scaledL1L2 / L2Dram / All  synergistic combinations (Fig. 10);
 *  - hbm()                      == scaledDram(): the paper treats a 4x
 *                               bandwidth GDDR5 as representative of
 *                               HBM (§VI-A3);
 *  - costEffective16_48/16_68/32_52()  the §VII configurations:
 *                               Type '=' buffers scaled, L1 MSHRs 48,
 *                               memory pipeline 40, asymmetric
 *                               crossbar, everything else baseline;
 *  - perfectMem()               P-inf of Table II;
 *  - idealDram()                P_DRAM of Table II;
 *  - fixedL1Lat(n)              the Fig. 3 latency-sweep mode.
 */

#ifndef BWSIM_GPU_GPU_CONFIG_HH
#define BWSIM_GPU_GPU_CONFIG_HH

#include <cstdint>
#include <string>

#include "cache/cache.hh"
#include "dram/dram_timing.hh"
#include "dram/memory_partition.hh"
#include "icnt/crossbar.hh"
#include "mem/addr_map.hh"
#include "smcore/sm_core.hh"

namespace bwsim
{

/** How the memory system below the L1s is modelled. */
enum class MemoryMode : std::uint8_t
{
    Normal,     ///< full hierarchy (crossbar + L2 + GDDR5)
    PerfectMem, ///< P-inf: fixed 120/220-cycle responses, no queueing
    IdealDram,  ///< P_DRAM: real caches, constant-latency infinite DRAM
    FixedL1Lat, ///< Fig. 3: every L1 miss returns after a fixed latency
};

struct GpuConfig
{
    std::string name = "baseline";

    /** @name Clocks (MHz; Table I) */
    /**@{*/
    double coreClockMhz = 1400.0;
    double icntClockMhz = 700.0; ///< crossbar and L2
    double dramClockMhz = 924.0; ///< command clock
    /**@}*/

    /** @name Cores */
    /**@{*/
    int numCores = 15;
    int maxWarpsPerCore = 48; ///< 1536 threads / 32
    int numSchedulers = 2;
    int ibufferEntries = 2;
    int fetchWidth = 2;
    int memPipelineWidth = 10; ///< Table III (c)
    int aluIssuePerCycle = 2;
    int aluInflightCap = 96;
    int sfuInflightCap = 16;
    SchedPolicy schedPolicy = SchedPolicy::Gto;
    /**@}*/

    /** @name L1 data cache (per core; Table I) */
    /**@{*/
    std::uint64_t l1dSizeBytes = 16 * 1024;
    std::uint32_t l1dAssoc = 4;
    std::uint32_t lineBytes = 128;
    std::uint32_t l1dMshrEntries = 32;
    std::uint32_t l1dMshrMerge = 8;
    std::uint32_t l1dMissQueue = 8;
    std::uint32_t l1dHitLatency = 1;
    /**@}*/

    /** @name L1 instruction cache (per core) */
    /**@{*/
    std::uint64_t l1iSizeBytes = 4 * 1024;
    std::uint32_t l1iAssoc = 4;
    std::uint32_t l1iMshrEntries = 8;
    std::uint32_t l1iMissQueue = 4;
    /**@}*/

    /** @name Interconnect (Table I / §VII-B) */
    /**@{*/
    std::uint32_t reqFlitBytes = 32;
    std::uint32_t replyFlitBytes = 32;
    std::uint32_t injQueuePackets = 8;
    std::uint32_t coreRespFifo = 8; ///< reply ejection = response FIFO
    std::uint32_t reqEjQueuePackets = 2;
    std::uint32_t icntTransitLatency = 4;
    /**@}*/

    /** @name Shared L2 (Table I; sizes are totals) */
    /**@{*/
    std::uint32_t numPartitions = 6;
    std::uint32_t l2BanksPerPartition = 2; ///< 12 banks total
    std::uint64_t l2TotalSizeBytes = 768 * 1024;
    std::uint32_t l2Assoc = 8;
    std::uint32_t l2MshrEntries = 32;  ///< per bank
    std::uint32_t l2MshrMerge = 8;
    std::uint32_t l2MissQueue = 8;     ///< per bank
    std::uint32_t l2RespQueue = 8;     ///< per bank
    std::uint32_t l2AccessQueue = 8;   ///< per bank
    std::uint32_t l2PortBytes = 32;    ///< data port width
    std::uint32_t l2HitLatency = 4;    ///< bank pipeline, L2 cycles
    std::uint32_t ropLatency = 52;     ///< fixed service latency, L2 cyc
    /**@}*/

    /** @name DRAM (per partition; Table I) */
    /**@{*/
    DramTiming dramTiming{};
    std::uint32_t dramBanks = 16;
    std::uint32_t dramRowBytes = 4096;
    std::uint32_t dramBusBytesPerCycle = 32; ///< 384-bit total, 4x rate
    std::uint32_t dramSchedQueue = 16;
    std::uint32_t dramReturnQueue = 32;
    std::uint32_t dramReturnPipeLatency = 30;
    /**@}*/

    /** @name Hierarchy-variant knobs (the paper's §VI mitigations) */
    /**@{*/
    /** L1D read misses bypass allocation: no reservation, no MSHR,
     *  demand-sized fetch; the reply completes the LSU slot directly. */
    bool l1BypassReads = false;
    /** Sector size in bytes (0 = unsectored): data movement below the
     *  L1s happens in sectors (demand-sized fetches and replies, no
     *  fetch-on-write for sector-covering stores). Must divide the
     *  line size. */
    std::uint32_t sectorBytes = 0;
    /** L2 bank selection: PartitionFirst welds the bank stream to the
     *  partition stream (baseline); BankFirst interleaves lines over
     *  the banks directly, decoupling the L2 bank count from the DRAM
     *  partition count (see mem/addr_map.hh). */
    L2Interleave l2Interleave = L2Interleave::PartitionFirst;
    /**@}*/

    /** @name Memory-system modelling mode */
    /**@{*/
    MemoryMode mode = MemoryMode::Normal;
    /** Fig. 3 fixed L1 miss latency (core cycles). */
    std::uint32_t fixedL1MissLatency = 200;
    /** P-inf constants (core cycles): L2 hit and DRAM totals (§III-B). */
    std::uint32_t perfectL2Latency = 120;
    std::uint32_t perfectDramLatency = 220;
    /** P_DRAM constant DRAM latency (core cycles, §III-B). */
    std::uint32_t idealDramLatency = 100;
    /**@}*/

    /** Safety cap on simulated core cycles. */
    std::uint64_t maxCoreCycles = 3'000'000;

    /** @name Derived parameter bundles */
    /**@{*/
    CacheParams l1dParams() const;
    CacheParams l1iParams() const;
    CacheParams l2BankParams() const;
    DramParams dramParams() const;
    NetworkParams reqNetParams() const;
    NetworkParams replyNetParams() const;
    PartitionParams partitionParams(int partition_id) const;
    CoreParams coreParams(int core_id) const;
    AddressMap addressMap() const;
    std::uint32_t totalL2Banks() const
    {
        return numPartitions * l2BanksPerPartition;
    }
    /**@}*/

    /** Sanity checks; fatal() on inconsistent combinations. */
    void validate() const;

    /** @name Identity (SimCache keying) */
    /**@{*/
    /**
     * Stable serialization of every architectural knob (including the
     * name, since it is reported in SimResult::config). Two configs
     * simulate identically iff their keys match.
     */
    std::string cacheKey() const;
    bool operator==(const GpuConfig &o) const;
    bool operator!=(const GpuConfig &o) const { return !(*this == o); }
    struct Hash
    {
        std::size_t operator()(const GpuConfig &c) const;
    };
    /**@}*/

    /** @name Presets (Table I / Table III / Table II modes) */
    /**@{*/
    static GpuConfig baseline();
    static GpuConfig scaledL1();
    static GpuConfig scaledL2();
    static GpuConfig scaledDram();
    static GpuConfig scaledL1L2();
    static GpuConfig scaledL2Dram();
    static GpuConfig scaledAll();
    static GpuConfig hbm();
    static GpuConfig costEffective16_48();
    static GpuConfig costEffective16_68();
    static GpuConfig costEffective32_52();
    static GpuConfig perfectMem();
    static GpuConfig idealDram();
    static GpuConfig fixedL1Lat(std::uint32_t latency_cycles);
    /**@}*/

    /** @name Hierarchy-variant presets (§VI mitigations) */
    /**@{*/
    /** Baseline + L1 read-bypass. */
    static GpuConfig l1Bypass();
    /** Baseline + 32 B sectored data movement below the L1s. */
    static GpuConfig l2Sectored();
    /** Baseline + 24 L2 banks on a bank-first interleave (bank count
     *  decoupled from the 6 DRAM partitions). */
    static GpuConfig l2Decoupled();
    /**@}*/

    /** @name Table III scaling helpers (4x factors) */
    /**@{*/
    void applyScaleL1(unsigned factor = 4);
    void applyScaleL2(unsigned factor = 4);
    void applyScaleDram(unsigned factor = 4);
    /** §VII Type '=' buffer scaling + L1 MSHR 48 + mem pipeline 40. */
    void applyCostEffectiveBuffers();
    /**@}*/
};

/**
 * Resolve a preset by the name its factory stamps on the config
 * ("baseline", "L2+DRAM", "P-inf", "fixed-200", ...). Behind the
 * CLI's --config= flag. False when @p name matches no preset.
 */
bool findConfigPreset(const std::string &name, GpuConfig &out);

/** Every accepted preset name, for error messages ("fixed-<N>" last). */
std::vector<std::string> configPresetNames();

} // namespace bwsim

#endif // BWSIM_GPU_GPU_CONFIG_HH
