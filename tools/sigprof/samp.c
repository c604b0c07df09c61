/* LD_PRELOAD SIGPROF sampler: where does a process's CPU time go, on a box
 * with no perf, no valgrind and no PMU.
 *
 *   gcc -O2 -shared -fPIC -o samp.so samp.c
 *   SAMP_OUT=run.samp LD_PRELOAD=$PWD/samp.so <program> <args>
 *
 * A constructor installs a SIGPROF handler and starts ITIMER_PROF at
 * SAMP_HZ (default 250: the kernel tick; asking for more gives no more).
 * ITIMER_PROF counts the CPU time of every thread, so a multi-threaded
 * program is sampled in proportion to where all of its threads spend it.
 * The handler stores backtrace()'s return addresses in a preallocated
 * array; the destructor writes /proc/self/maps, then one line of hex
 * addresses per sample (innermost frame first), to $SAMP_OUT (default
 * samp.out). symbolize.py turns that file into a table.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>

#define MAX_DEPTH 48
#define MAX_SAMPLES (1 << 18) /* 17 min of one thread at 250 Hz; 100 MB of address space, touched as used */

static void *stacks[MAX_SAMPLES][MAX_DEPTH];
static int depths[MAX_SAMPLES];
static volatile int taken;

static void on_prof(int sig) {
    (void)sig;
    int i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        depths[i] = backtrace(stacks[i], MAX_DEPTH);
}

__attribute__((constructor)) static void samp_start(void) {
    /* The first backtrace() loads libgcc's unwinder with dlopen, which is
     * not async-signal-safe: make that call here, outside the handler. */
    void *warm[4];
    backtrace(warm, 4);

    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_prof;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);

    const char *hz_env = getenv("SAMP_HZ");
    long hz = hz_env ? atol(hz_env) : 250;
    if (hz <= 0)
        hz = 250;
    struct itimerval it;
    it.it_interval.tv_sec = 0;
    it.it_interval.tv_usec = 1000000 / hz;
    it.it_value = it.it_interval;
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void samp_stop(void) {
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);

    const char *path = getenv("SAMP_OUT");
    FILE *out = fopen(path ? path : "samp.out", "w");
    if (!out)
        return;
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[1024];
        while (fgets(line, sizeof line, maps))
            fputs(line, out);
        fclose(maps);
    }
    fputs("--- stacks\n", out);
    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (int i = 0; i < n; i++) {
        /* Frames 0 and 1 are the handler and the signal trampoline. */
        for (int d = 2; d < depths[i]; d++)
            fprintf(out, "%lx ", (unsigned long)stacks[i][d]);
        fputc('\n', out);
    }
    if (taken > MAX_SAMPLES)
        fprintf(stderr, "samp: %d samples dropped\n", taken - MAX_SAMPLES);
    fclose(out);
}
