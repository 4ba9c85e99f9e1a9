/**
 * @file
 * Tests for the distributed work-queue backend (core/work_queue.*):
 * job/reply wire-format fidelity, end-to-end parity with the
 * in-process backend, and the crash-recovery paths -- a
 * claimed-but-abandoned job is reclaimed after the job timeout, and
 * a corrupt reply file is discarded and its job re-dispatched.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "core/sim_cache.hh"
#include "core/work_queue.hh"
#include "gpu/gpu_config.hh"
#include "workloads/profile.hh"

namespace fs = std::filesystem;
using namespace bwsim;

namespace
{

/** Fresh empty spool under the gtest temp root. */
std::string
freshSpool(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "bwsim-wq-" + name;
    fs::remove_all(dir);
    return dir;
}

GpuConfig
quickConfig(const std::string &name = "baseline")
{
    GpuConfig cfg = GpuConfig::baseline();
    cfg.name = name;
    cfg.maxCoreCycles = 400000;
    return cfg;
}

std::vector<RunSpec>
quickSpecs()
{
    return {{makeTestProfile("tiny-compute"), quickConfig()},
            {makeTestProfile("tiny-stream"), quickConfig()},
            {makeTestProfile("tiny-compute"), quickConfig("alt")}};
}

WorkQueueConfig
quickQueueConfig(const std::string &spool)
{
    WorkQueueConfig cfg;
    cfg.spoolDir = spool;
    cfg.jobTimeoutSec = 1.0;
    cfg.pollIntervalSec = 0.001;
    return cfg;
}

/** Bit-exact equality via the canonical byte format. */
std::string
resultBytes(const SimResult &r)
{
    ByteWriter w;
    serializeResult(w, r);
    return std::move(w).take();
}

std::size_t
countFiles(const fs::path &dir)
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto &e : fs::directory_iterator(dir))
        ++n;
    return n;
}

void
writeFile(const fs::path &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Drive parent and worker in-process until the sweep drains. */
std::vector<SimResult>
drain(WorkQueue &queue, const std::vector<RunSpec> &specs,
      SimCache &worker_cache, int max_steps = 100)
{
    for (int step = 0; !queue.done() && step < max_steps; ++step) {
        workerProcessOneJob(queue.config().spoolDir, worker_cache);
        queue.poll();
    }
    EXPECT_TRUE(queue.done()) << "queue did not drain";
    return queue.results(specs);
}

} // namespace

TEST(WorkQueueWire, JobRoundTripsProfileAndConfig)
{
    RunSpec spec{makeTestProfile("tiny-mixed"),
                 GpuConfig::costEffective16_48()};
    const std::string bytes = encodeJob(spec);

    RunSpec back;
    ASSERT_TRUE(decodeJob(bytes, back));
    EXPECT_EQ(back.workload.cacheKey(), spec.workload.cacheKey());
    EXPECT_EQ(back.config.cacheKey(), spec.config.cacheKey());
    EXPECT_EQ(workKeyOf(back), workKeyOf(spec));
    // Decode-and-re-encode is byte-identical: the format is canonical.
    EXPECT_EQ(encodeJob(back), bytes);
}

TEST(WorkQueueWire, ReplyRoundTripsResult)
{
    SimResult r;
    r.benchmark = "bench\nwith|delims";
    r.config = "cfg";
    r.ipc = 12.5;
    r.coreCycles = 987654321ull;
    const std::string key = "some\nkey";
    const std::string bytes = encodeReply(key, r);

    std::string back_key;
    SimResult back;
    ASSERT_TRUE(decodeReply(bytes, back_key, back));
    EXPECT_EQ(back_key, key);
    EXPECT_EQ(resultBytes(back), resultBytes(r));
}

TEST(WorkQueueWire, LayoutMismatchDiagnosedDistinctlyFromBitRot)
{
    RunSpec spec{makeTestProfile("tiny-compute"), quickConfig()};
    const std::string bytes = encodeJob(spec);
    RunSpec out;
    std::string why;

    // Bit-rot: the envelope checksum fails.
    EXPECT_FALSE(
        decodeJob(bytes.substr(0, bytes.size() / 2), out, &why));
    EXPECT_NE(why.find("envelope"), std::string::npos) << why;

    // A *valid* envelope around another build's layout (here: a
    // bumped profileSerdesVersion word) is a configuration error --
    // mixed bwsim builds on one spool -- and must say so instead of
    // reading as corruption.
    std::string payload;
    ASSERT_TRUE(unframeBlob(workQueueJobMagic, workQueueFormatVersion,
                            bytes, payload));
    payload[0] = static_cast<char>(payload[0] ^ 0x01);
    const std::string tampered =
        frameBlob(workQueueJobMagic, workQueueFormatVersion, payload);
    EXPECT_FALSE(decodeJob(tampered, out, &why));
    EXPECT_NE(why.find("layout mismatch"), std::string::npos) << why;
}

TEST(WorkQueueWire, FileNamesDeriveFromTheKey)
{
    RunSpec spec{makeTestProfile("tiny-compute"), quickConfig()};
    const std::string key = workKeyOf(spec);
    EXPECT_EQ(jobFileNameFor(key).substr(0, 3), "jb-");
    EXPECT_NE(jobFileNameFor(key), jobFileNameFor(key + "x"));
    // Job and reply names agree on the hash, differ in extension.
    EXPECT_EQ(jobFileNameFor(key).substr(0, 19),
              replyFileNameFor(key).substr(0, 19));
}

TEST(WorkQueue, EndToEndMatchesThreadedBackendBitExact)
{
    const std::string spool = freshSpool("parity");
    const std::vector<RunSpec> specs = quickSpecs();

    ThreadedBackend threaded;
    const std::vector<SimResult> expect = threaded.runAll(specs, 1);

    WorkQueue queue(quickQueueConfig(spool));
    queue.dispatch(specs);
    SimCache worker_cache;
    const std::vector<SimResult> got = drain(queue, specs, worker_cache);

    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(resultBytes(got[i]), resultBytes(expect[i])) << i;
    EXPECT_EQ(queue.repliesConsumed(), 3u);
    EXPECT_EQ(queue.corruptReplies(), 0u);
    EXPECT_EQ(queue.reclaimedJobs(), 0u);
    // The spool is clean afterwards: no leaked jobs/claims/replies.
    EXPECT_EQ(countFiles(fs::path(spool) / "jobs"), 0u);
    EXPECT_EQ(countFiles(fs::path(spool) / "claimed"), 0u);
    EXPECT_EQ(countFiles(fs::path(spool) / "replies"), 0u);
}

TEST(WorkQueue, DuplicateSpecsDispatchOneJob)
{
    const std::string spool = freshSpool("dedupe");
    RunSpec spec{makeTestProfile("tiny-compute"), quickConfig()};
    WorkQueue queue(quickQueueConfig(spool));
    queue.dispatch({spec, spec, spec});
    EXPECT_EQ(countFiles(fs::path(spool) / "jobs"), 1u);

    SimCache worker_cache;
    auto results = drain(queue, {spec, spec, spec}, worker_cache);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(resultBytes(results[0]), resultBytes(results[1]));
    EXPECT_EQ(resultBytes(results[0]), resultBytes(results[2]));
    EXPECT_EQ(worker_cache.simsRun(), 1u);
}

TEST(WorkQueue, AbandonedClaimIsReclaimedAfterTimeout)
{
    const std::string spool = freshSpool("reclaim");
    RunSpec spec{makeTestProfile("tiny-compute"), quickConfig()};
    WorkQueue queue(quickQueueConfig(spool)); // 1s job timeout
    queue.dispatch({spec});

    // A worker claims the job, then "crashes": the claim file sits in
    // claimed/ with an old mtime and no reply ever arrives.
    const std::string job = jobFileNameFor(workKeyOf(spec));
    fs::rename(fs::path(spool) / "jobs" / job,
               fs::path(spool) / "claimed" / job);
    fs::last_write_time(fs::path(spool) / "claimed" / job,
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(1));

    queue.poll();
    EXPECT_EQ(queue.reclaimedJobs(), 1u);
    EXPECT_TRUE(fs::exists(fs::path(spool) / "jobs" / job))
        << "reclaimed job must be back in jobs/";
    EXPECT_FALSE(fs::exists(fs::path(spool) / "claimed" / job));

    // A healthy worker now finishes the sweep.
    SimCache worker_cache;
    auto results = drain(queue, {spec}, worker_cache);
    EXPECT_EQ(results[0].benchmark, spec.workload.name());
}

TEST(WorkQueue, FreshClaimIsNotReclaimed)
{
    const std::string spool = freshSpool("fresh-claim");
    RunSpec spec{makeTestProfile("tiny-compute"), quickConfig()};
    WorkQueue queue(quickQueueConfig(spool));
    queue.dispatch({spec});

    const std::string job = jobFileNameFor(workKeyOf(spec));
    fs::rename(fs::path(spool) / "jobs" / job,
               fs::path(spool) / "claimed" / job);
    fs::last_write_time(fs::path(spool) / "claimed" / job,
                        fs::file_time_type::clock::now());

    queue.poll();
    EXPECT_EQ(queue.reclaimedJobs(), 0u);
    EXPECT_TRUE(fs::exists(fs::path(spool) / "claimed" / job))
        << "a live claim must be left alone";
}

TEST(WorkQueue, CorruptReplyIsDiscardedAndJobRedispatched)
{
    const std::string spool = freshSpool("corrupt-reply");
    RunSpec spec{makeTestProfile("tiny-stream"), quickConfig()};
    WorkQueue queue(quickQueueConfig(spool));
    queue.dispatch({spec});

    // A sick worker consumed the job and published garbage.
    const std::string key = workKeyOf(spec);
    fs::remove(fs::path(spool) / "jobs" / jobFileNameFor(key));
    const fs::path reply_path =
        fs::path(spool) / "replies" / replyFileNameFor(key);
    writeFile(reply_path, "garbage, not a reply");

    queue.poll();
    EXPECT_EQ(queue.corruptReplies(), 1u);
    EXPECT_EQ(queue.redispatchedJobs(), 1u);
    EXPECT_FALSE(fs::exists(reply_path))
        << "corrupt reply must be deleted";
    EXPECT_TRUE(
        fs::exists(fs::path(spool) / "jobs" / jobFileNameFor(key)))
        << "job must be re-dispatched";
    EXPECT_FALSE(queue.done());

    // A truncated real reply is just as dead.
    SimCache scratch;
    workerProcessOneJob(spool, scratch);
    std::ifstream in(reply_path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    writeFile(reply_path, bytes.substr(0, bytes.size() / 2));
    queue.poll();
    EXPECT_EQ(queue.corruptReplies(), 2u);
    EXPECT_FALSE(queue.done());

    // The healthy path still completes the sweep.
    SimCache worker_cache;
    auto results = drain(queue, {spec}, worker_cache);
    EXPECT_EQ(results[0].benchmark, spec.workload.name());
}

TEST(ClaimHeartbeat, RefreshesTheClaimMtimeUntilDestroyed)
{
    const std::string dir = freshSpool("heartbeat");
    fs::create_directories(dir);
    const fs::path claim = fs::path(dir) / "claim";
    writeFile(claim, "x");
    // Age the claim well past any plausible job timeout.
    fs::last_write_time(claim, fs::file_time_type::clock::now() -
                                   std::chrono::hours(1));
    {
        ClaimHeartbeat hb(claim.string(), 0.01);
        // Wait (bounded) for at least one refresh.
        for (int i = 0; i < 1000 && hb.beats() == 0; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        EXPECT_GT(hb.beats(), 0u);
    }
    const auto age =
        fs::file_time_type::clock::now() - fs::last_write_time(claim);
    EXPECT_LT(std::chrono::duration<double>(age).count(), 60.0);
}

TEST(ClaimHeartbeat, DisabledOrVanishedFileIsHarmless)
{
    // interval <= 0: no thread at all.
    ClaimHeartbeat off("/nonexistent/claim", 0.0);
    EXPECT_EQ(off.beats(), 0u);
    // A path that never exists: touches fail quietly, nothing crashes.
    ClaimHeartbeat orphan("/nonexistent/claim", 0.005);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(orphan.beats(), 0u);
}

TEST(WorkQueueRecovery, HeartbeatPreventsStaleClaimReclaim)
{
    const std::string spool = freshSpool("hb-reclaim");
    WorkQueueConfig cfg = quickQueueConfig(spool);
    cfg.jobTimeoutSec = 0.5;
    WorkQueue queue(cfg);
    RunSpec spec{makeTestProfile("tiny-compute"), quickConfig()};
    queue.dispatch({spec});

    const std::string job = jobFileNameFor(workKeyOf(spec));
    const fs::path claimed = fs::path(spool) / "claimed" / job;
    fs::rename(fs::path(spool) / "jobs" / job, claimed);
    {
        // A worker whose "simulation" outlasts the job timeout, but
        // whose heartbeat keeps the claim visibly alive: the parent
        // must not reclaim it.
        ClaimHeartbeat hb(claimed.string(), 0.05);
        std::this_thread::sleep_for(std::chrono::milliseconds(800));
        queue.poll();
        EXPECT_EQ(queue.reclaimedJobs(), 0u);
        EXPECT_TRUE(fs::exists(claimed));
    }
    // Heartbeat gone (worker crash): the same wait now triggers the
    // reclaim and the job returns to jobs/ for re-dispatch.
    std::this_thread::sleep_for(std::chrono::milliseconds(800));
    queue.poll();
    EXPECT_EQ(queue.reclaimedJobs(), 1u);
    EXPECT_TRUE(fs::exists(fs::path(spool) / "jobs" / job));
}

TEST(WorkQueueRecovery, WorkerHeartbeatParameterIsAccepted)
{
    // The worker entry point plumbs the heartbeat interval through;
    // with a tiny sim the heartbeat may never fire, but the claim and
    // reply lifecycle must be unchanged.
    const std::string spool = freshSpool("hb-worker");
    WorkQueue queue(quickQueueConfig(spool));
    RunSpec spec{makeTestProfile("tiny-compute"), quickConfig()};
    queue.dispatch({spec});

    SimCache cache;
    WorkerStats stats;
    EXPECT_TRUE(workerProcessOneJob(spool, cache, &stats, 0.01));
    EXPECT_EQ(stats.jobsProcessed, 1u);
    EXPECT_EQ(countFiles(fs::path(spool) / "claimed"), 0u);
    EXPECT_EQ(countFiles(fs::path(spool) / "replies"), 1u);
}

TEST(WorkQueue, WorkerDiscardsCorruptJobFile)
{
    const std::string spool = freshSpool("corrupt-job");
    WorkQueue queue(quickQueueConfig(spool)); // creates the dirs
    writeFile(fs::path(spool) / "jobs" / "jb-0000000000000bad.job",
              "this is not a job");

    SimCache cache;
    WorkerStats stats;
    EXPECT_TRUE(workerProcessOneJob(spool, cache, &stats));
    EXPECT_EQ(stats.corruptJobs, 1u);
    EXPECT_EQ(stats.jobsProcessed, 0u);
    EXPECT_EQ(cache.simsRun(), 0u);
    EXPECT_EQ(countFiles(fs::path(spool) / "jobs"), 0u);
    EXPECT_EQ(countFiles(fs::path(spool) / "claimed"), 0u);
    // Nothing left to do.
    EXPECT_FALSE(workerProcessOneJob(spool, cache, &stats));
}

TEST(WorkQueue, WorkersShareTheDiskCacheTier)
{
    const std::string spool = freshSpool("disk-tier");
    const std::string cache_dir =
        ::testing::TempDir() + "bwsim-wq-disk-tier-cache";
    fs::remove_all(cache_dir);
    RunSpec spec{makeTestProfile("tiny-compute"), quickConfig()};

    {
        WorkQueue queue(quickQueueConfig(spool));
        queue.dispatch({spec});
        SimCache worker_a;
        worker_a.attachDiskTier(cache_dir);
        drain(queue, {spec}, worker_a);
        EXPECT_EQ(worker_a.simsRun(), 1u);
        EXPECT_EQ(worker_a.diskStores(), 1u);
    }
    {
        // The same pair dispatched again: a different worker process
        // (modelled by a fresh SimCache) serves it straight from the
        // shared cache directory without re-simulating.
        WorkQueue queue(quickQueueConfig(spool));
        queue.dispatch({spec});
        SimCache worker_b;
        worker_b.attachDiskTier(cache_dir);
        drain(queue, {spec}, worker_b);
        EXPECT_EQ(worker_b.simsRun(), 0u);
        EXPECT_EQ(worker_b.diskHits(), 1u);
    }
}

TEST(WorkQueue, StopSentinel)
{
    const std::string spool = freshSpool("stop");
    WorkQueueConfig cfg = quickQueueConfig(spool);
    WorkQueue queue(cfg); // creates the dirs
    EXPECT_FALSE(stopRequested(spool));
    writeFile(fs::path(spool) / "stop", "");
    EXPECT_TRUE(stopRequested(spool));

    // runWorker() on a stopped, empty spool returns immediately.
    SimCache cache;
    WorkerStats stats = runWorker(cfg, cache);
    EXPECT_EQ(stats.jobsProcessed, 0u);
}

TEST(WorkQueueBackend, RunAllThroughSimCacheGlobalShape)
{
    // The backend seam the CLI uses: a SimCache whose simulation
    // backend is the queue. Run the worker from a second thread so
    // runAll()'s blocking poll loop can complete.
    const std::string spool = freshSpool("backend");
    WorkQueueConfig cfg = quickQueueConfig(spool);

    SimCache parent;
    parent.setSimulationBackend(std::make_shared<WorkQueueBackend>(cfg));

    std::thread worker([&]() {
        SimCache worker_cache;
        runWorker(cfg, worker_cache);
    });

    const std::vector<RunSpec> specs = quickSpecs();
    std::vector<SimResult> got;
    try {
        got = parent.runAll(specs, 1);
    } catch (...) {
        writeFile(fs::path(spool) / "stop", "");
        worker.join();
        throw;
    }
    writeFile(fs::path(spool) / "stop", "");
    worker.join();

    ThreadedBackend threaded;
    const std::vector<SimResult> expect = threaded.runAll(specs, 1);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(resultBytes(got[i]), resultBytes(expect[i])) << i;
    // simsRun() counts what went through the simulation backend --
    // here, jobs executed remotely on the worker's behalf.
    EXPECT_EQ(parent.simsRun(), 3u);
}

TEST(WorkQueueBackendDeathTest, DeadWorkersFailInsteadOfPollingForever)
{
    // The --jobs parent owns its workers: once the liveness hook says
    // they are gone, pending jobs can never complete, so runAll() must
    // exit with a one-line error rather than poll forever.
    const std::string spool = freshSpool("dead-workers");
    WorkQueueBackend backend(quickQueueConfig(spool), [] { return false; });
    EXPECT_EXIT(backend.runAll(quickSpecs(), 1),
                ::testing::ExitedWithCode(1),
                "^fatal: a --jobs worker failed[^\n]*\n$");
}
