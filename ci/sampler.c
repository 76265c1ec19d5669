/*
 * A SIGPROF call-stack sampler, loaded with LD_PRELOAD into a program
 * built with frame pointers (x86-64 Linux, glibc).
 *
 *   cc -O2 -shared -fPIC -o sampler.so ci/sampler.c
 *   LD_PRELOAD=./sampler.so ./program ...
 *
 * Every ITIMER_PROF tick of process CPU time (1 ms asked for; the
 * kernel's tick sets what is granted), the handler records the
 * interrupted program counter and the return addresses of the frame
 * pointer chain. A sample whose program counter lies outside the
 * executable (libc's memcpy, malloc, ...) is not built with frame
 * pointers, so its caller is taken to be the first word on the stack that
 * points into the executable's code: a heuristic, reported as such.
 *
 * At exit `sampler.out` in the working directory gets the memory map,
 * the dynamic symbol (or, for a local one, the library) of every program
 * counter outside the executable, and one line of hex addresses per
 * sample, innermost first.
 * ci/callsites.py resolves them with addr2line -i.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 64
/* Stack words searched for the caller of a sample outside the executable. */
#define SCAN_WORDS 32
/* 32 MiB of samples: about 100,000 samples of 40 frames. */
#define BUF_WORDS (1u << 22)

static uintptr_t buf[BUF_WORDS];
static size_t used;
static unsigned long dropped;
static uintptr_t text_lo, text_hi;
static uintptr_t stack_lo, stack_hi;

static int in_text(uintptr_t a) { return a >= text_lo && a < text_hi; }

static int on_stack(uintptr_t a) {
    return a >= stack_lo && a + 2 * sizeof(uintptr_t) <= stack_hi && a % sizeof(uintptr_t) == 0;
}

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    const ucontext_t *uc = context;
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t frames[MAX_DEPTH];
    size_t n = 0;
    frames[n++] = pc;
    /* Threads other than the main one are sampled at their leaf only. */
    int walk = on_stack(sp);
    if (walk && !in_text(pc)) {
        for (size_t i = 0; i < SCAN_WORDS && on_stack(sp + i * sizeof(uintptr_t)); i++) {
            uintptr_t w = ((const uintptr_t *)sp)[i];
            if (in_text(w)) {
                frames[n++] = w;
                break;
            }
        }
    }
    while (walk && n < MAX_DEPTH && on_stack(fp) && fp >= sp) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        uintptr_t ret = frame[1];
        if (!in_text(ret)) {
            break;
        }
        if (ret != frames[n - 1]) {
            frames[n++] = ret;
        }
        if (frame[0] <= fp) {
            break;
        }
        fp = frame[0];
    }
    size_t at = __atomic_fetch_add(&used, n + 1, __ATOMIC_RELAXED);
    if (at + n + 1 > BUF_WORDS) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        return;
    }
    buf[at] = n;
    memcpy(&buf[at + 1], frames, n * sizeof(uintptr_t));
}

/* Reads the executable's code range and the main thread's stack range
 * from /proc/self/maps. */
static void read_maps(void) {
    char exe[4096];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (len < 0) {
        return;
    }
    exe[len] = 0;
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!maps) {
        return;
    }
    char line[8192];
    while (fgets(line, sizeof line, maps)) {
        unsigned long lo, hi;
        char perms[8];
        int path_at = 0;
        if (sscanf(line, "%lx-%lx %7s %*s %*s %*s %n", &lo, &hi, perms, &path_at) < 3) {
            continue;
        }
        char *path = line + path_at;
        path[strcspn(path, "\n")] = 0;
        if (perms[2] == 'x' && strcmp(path, exe) == 0) {
            if (!text_lo || lo < text_lo) {
                text_lo = lo;
            }
            if (hi > text_hi) {
                text_hi = hi;
            }
        } else if (strcmp(path, "[stack]") == 0) {
            stack_lo = lo;
            stack_hi = hi;
        }
    }
    fclose(maps);
}

static void copy_maps(FILE *out) {
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!maps) {
        return;
    }
    char line[8192];
    while (fgets(line, sizeof line, maps)) {
        fprintf(out, "map %s", line);
    }
    fclose(maps);
}

__attribute__((constructor)) static void sampler_start(void) {
    read_maps();
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void sampler_stop(void) {
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);
    FILE *out = fopen("sampler.out", "w");
    if (!out) {
        perror("sampler.out");
        return;
    }
    copy_maps(out);
    size_t end = used < BUF_WORDS ? used : BUF_WORDS;
    fprintf(out, "dropped %lu\n", dropped);
    for (size_t at = 0; at < end && at + buf[at] + 1 <= end; at += buf[at] + 1) {
        uintptr_t pc = buf[at + 1];
        Dl_info dl;
        if (in_text(pc) || !dladdr((void *)pc, &dl)) {
            continue;
        }
        if (dl.dli_sname) {
            fprintf(out, "sym %lx %s\n", (unsigned long)pc, dl.dli_sname);
        } else if (dl.dli_fname) {
            /* A local symbol (memcpy's AVX variants): name the library. */
            const char *slash = strrchr(dl.dli_fname, '/');
            fprintf(out, "sym %lx (local in %s)\n", (unsigned long)pc,
                    slash ? slash + 1 : dl.dli_fname);
        }
    }
    for (size_t at = 0; at < end && at + buf[at] + 1 <= end; at += buf[at] + 1) {
        fputs("sample", out);
        for (size_t i = 0; i < buf[at]; i++) {
            fprintf(out, " %lx", (unsigned long)buf[at + 1 + i]);
        }
        fputc('\n', out);
    }
    fclose(out);
}
