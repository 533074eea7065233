/* Native replay kernel: the top rung of the simulator's kernel ladder.
 *
 * A hand-written transliteration of Simulator._replay_batched (the
 * numpy batched kernel) into C.  The contract is the same as every
 * rung: bit-identical SimResult digests against the generic loop,
 * enforced by the differential batteries, the golden fingerprints in
 * tests/golden/kernels.json, and `python -m repro.bench --check`.
 *
 * Bit-exactness notes:
 *  - Every float expression keeps the interpreter's evaluation order
 *    and operand types (IEEE doubles throughout; CPython computes
 *    int/int true division and int->float promotion as exact doubles
 *    for magnitudes below 2**53, which all quantities here are).
 *  - `cost // QUANTIZATION_STEP` uses a transliteration of CPython's
 *    float_divmod so the bucket index matches the interpreter even in
 *    pathological rounding cases.
 *  - Container pop order is replayed exactly: the MSHR deques are FIFO
 *    rings, the store-buffer and memory heaps hold plain doubles (any
 *    valid binary heap pops the same value sequence), and identity
 *    checks on MSHR entries use a monotone serial number in place of
 *    CPython object identity.
 *
 *  - Floating-point contraction is off: `a * b + c` must round twice,
 *    as the interpreter does, never once through a fused multiply-add
 *    (the tournament's score decay and AWRP's rank are such sums).
 *
 * The kernel consumes PackedTrace columns through the buffer protocol
 * (array.array or numpy arrays both work) and returns every counter
 * and small queue the result reads, plus an EndState object that owns
 * the finished machine.  The large containers (tag sets, seen set,
 * policy side tables, ATDs) stay in C until the Python wrapper
 * (repro.sim.native) asks the EndState to emit them — which only a
 * post-run read of the Simulator's caches or controller does.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ---------------------------------------------------------------- */
/* CPython float floor-division (Objects/floatobject.c:float_divmod) */
/* ---------------------------------------------------------------- */

static double
py_floordiv(double vx, double wx)
{
    double mod, div, floordiv;
    mod = fmod(vx, wx);
    div = (vx - mod) / wx;
    if (mod) {
        if ((wx < 0) != (mod < 0)) {
            mod += wx;
            div -= 1.0;
        }
    }
    else {
        mod = copysign(0.0, wx);
    }
    if (div) {
        floordiv = floor(div);
        if (div - floordiv > 0.5) {
            floordiv += 1.0;
        }
    }
    else {
        floordiv = copysign(0.0, vx / wx);
    }
    return floordiv;
}

/* ---------------------------------------------------------------- */
/* Growable min-heap of doubles (heapq semantics over plain values)  */
/* ---------------------------------------------------------------- */

typedef struct {
    double *a;
    Py_ssize_t n, cap;
} DHeap;

static int
dheap_reserve(DHeap *h, Py_ssize_t want)
{
    if (want <= h->cap) {
        return 0;
    }
    Py_ssize_t cap = h->cap ? h->cap * 2 : 64;
    while (cap < want) {
        cap *= 2;
    }
    double *a = (double *)realloc(h->a, (size_t)cap * sizeof(double));
    if (!a) {
        return -1;
    }
    h->a = a;
    h->cap = cap;
    return 0;
}

static int
dheap_push(DHeap *h, double v)
{
    if (dheap_reserve(h, h->n + 1) < 0) {
        return -1;
    }
    Py_ssize_t i = h->n++;
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (h->a[parent] <= v) {
            break;
        }
        h->a[i] = h->a[parent];
        i = parent;
    }
    h->a[i] = v;
    return 0;
}

static double
dheap_pop(DHeap *h)
{
    double top = h->a[0];
    double last = h->a[--h->n];
    Py_ssize_t i = 0, n = h->n;
    for (;;) {
        Py_ssize_t child = 2 * i + 1;
        if (child >= n) {
            break;
        }
        if (child + 1 < n && h->a[child + 1] < h->a[child]) {
            child += 1;
        }
        if (h->a[child] >= last) {
            break;
        }
        h->a[i] = h->a[child];
        i = child;
    }
    if (n) {
        h->a[i] = last;
    }
    return top;
}

/* ---------------------------------------------------------------- */
/* FIFO rings                                                        */
/* ---------------------------------------------------------------- */

typedef struct {
    double *a;
    Py_ssize_t head, n, cap;
} DRing;

static int
dring_append(DRing *r, double v)
{
    if (r->n == r->cap) {
        Py_ssize_t cap = r->cap ? r->cap * 2 : 64;
        double *a = (double *)malloc((size_t)cap * sizeof(double));
        if (!a) {
            return -1;
        }
        for (Py_ssize_t i = 0; i < r->n; i++) {
            a[i] = r->a[(r->head + i) % (r->cap ? r->cap : 1)];
        }
        free(r->a);
        r->a = a;
        r->cap = cap;
        r->head = 0;
    }
    r->a[(r->head + r->n) % r->cap] = v;
    r->n += 1;
    return 0;
}

static double
dring_popleft(DRing *r)
{
    double v = r->a[r->head];
    r->head = (r->head + 1) % r->cap;
    r->n -= 1;
    return v;
}

#define DRING_FRONT(r) ((r)->a[(r)->head])

typedef struct {
    int64_t index;
    double frontier;
} WinEntry;

typedef struct {
    WinEntry *a;
    Py_ssize_t head, n, cap;
} WRing;

static int
wring_append(WRing *r, int64_t index, double frontier)
{
    if (r->n == r->cap) {
        Py_ssize_t cap = r->cap ? r->cap * 2 : 64;
        WinEntry *a = (WinEntry *)malloc((size_t)cap * sizeof(WinEntry));
        if (!a) {
            return -1;
        }
        for (Py_ssize_t i = 0; i < r->n; i++) {
            a[i] = r->a[(r->head + i) % (r->cap ? r->cap : 1)];
        }
        free(r->a);
        r->a = a;
        r->cap = cap;
        r->head = 0;
    }
    WinEntry *slot = &r->a[(r->head + r->n) % r->cap];
    slot->index = index;
    slot->frontier = frontier;
    r->n += 1;
    return 0;
}

static WinEntry
wring_popleft(WRing *r)
{
    WinEntry v = r->a[r->head];
    r->head = (r->head + 1) % r->cap;
    r->n -= 1;
    return v;
}

#define WRING_FRONT(r) ((r)->a[(r)->head])

/* MSHR entry ring: replaces the batched kernel's `md` deque of
 * (completion, block, state, pending, acc_start) tuples.  `serial`
 * stands in for CPython object identity; the state reference becomes
 * (set_index, fill_seq) so the cost sink can find the tag by scan. */

typedef struct {
    double complete;
    double acc_start;
    int64_t block;
    int64_t serial;
    int64_t fill_seq;
    int32_t set_index;
    /* deferred PSEL/ATD update: 0 none, 1 sbar decrement, 2 cbs,
     * 3 tournament charge */
    uint8_t pend_kind;
    int8_t pend_psel_op; /* cbs: 0 none, 1 increment, 2 decrement */
    int32_t pend_psel_idx; /* cbs psel index; tournament owner */
    int32_t pend_fill_set; /* cbs ATD-LIN fill to patch, -1 = none */
    int64_t pend_fill_seq;
} MEntry;

typedef struct {
    MEntry *a;
    Py_ssize_t head, n, cap;
} MRing;

static int
mring_append(MRing *r, MEntry v)
{
    if (r->n == r->cap) {
        Py_ssize_t cap = r->cap ? r->cap * 2 : 64;
        MEntry *a = (MEntry *)malloc((size_t)cap * sizeof(MEntry));
        if (!a) {
            return -1;
        }
        for (Py_ssize_t i = 0; i < r->n; i++) {
            a[i] = r->a[(r->head + i) % (r->cap ? r->cap : 1)];
        }
        free(r->a);
        r->a = a;
        r->cap = cap;
        r->head = 0;
    }
    r->a[(r->head + r->n) % r->cap] = v;
    r->n += 1;
    return 0;
}

static MEntry
mring_popleft(MRing *r)
{
    MEntry v = r->a[r->head];
    r->head = (r->head + 1) % r->cap;
    r->n -= 1;
    return v;
}

#define MRING_FRONT(r) ((r)->a[(r)->head])

/* ---------------------------------------------------------------- */
/* Open-addressing hash map: int64 key -> (int64 a, double b)        */
/* ---------------------------------------------------------------- */

#define MAP_EMPTY INT64_MIN

typedef struct {
    int64_t key;
    int64_t a;
    double b;
} MapSlot;

typedef struct {
    MapSlot *slots;
    size_t cap; /* power of two */
    size_t n;
} Map;

static uint64_t
hash64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

static int
map_init(Map *m, size_t cap)
{
    size_t c = 16;
    while (c < cap) {
        c *= 2;
    }
    m->slots = (MapSlot *)malloc(c * sizeof(MapSlot));
    if (!m->slots) {
        return -1;
    }
    for (size_t i = 0; i < c; i++) {
        m->slots[i].key = MAP_EMPTY;
    }
    m->cap = c;
    m->n = 0;
    return 0;
}

static MapSlot *
map_get(Map *m, int64_t key)
{
    size_t mask = m->cap - 1;
    size_t i = (size_t)hash64((uint64_t)key) & mask;
    for (;;) {
        MapSlot *s = &m->slots[i];
        if (s->key == key) {
            return s;
        }
        if (s->key == MAP_EMPTY) {
            return NULL;
        }
        i = (i + 1) & mask;
    }
}

static int map_grow(Map *m);

/* Insert or update; returns the slot, NULL on allocation failure. */
static MapSlot *
map_put(Map *m, int64_t key, int64_t a, double b)
{
    if ((m->n + 1) * 10 >= m->cap * 7) {
        if (map_grow(m) < 0) {
            return NULL;
        }
    }
    size_t mask = m->cap - 1;
    size_t i = (size_t)hash64((uint64_t)key) & mask;
    for (;;) {
        MapSlot *s = &m->slots[i];
        if (s->key == key) {
            s->a = a;
            s->b = b;
            return s;
        }
        if (s->key == MAP_EMPTY) {
            s->key = key;
            s->a = a;
            s->b = b;
            m->n += 1;
            return s;
        }
        i = (i + 1) & mask;
    }
}

static int
map_grow(Map *m)
{
    size_t old_cap = m->cap;
    MapSlot *old = m->slots;
    size_t cap = old_cap * 2;
    MapSlot *slots = (MapSlot *)malloc(cap * sizeof(MapSlot));
    if (!slots) {
        return -1;
    }
    for (size_t i = 0; i < cap; i++) {
        slots[i].key = MAP_EMPTY;
    }
    size_t mask = cap - 1;
    for (size_t i = 0; i < old_cap; i++) {
        if (old[i].key == MAP_EMPTY) {
            continue;
        }
        size_t j = (size_t)hash64((uint64_t)old[i].key) & mask;
        while (slots[j].key != MAP_EMPTY) {
            j = (j + 1) & mask;
        }
        slots[j] = old[i];
    }
    free(old);
    m->slots = slots;
    m->cap = cap;
    return 0;
}

/* Backward-shift deletion (linear probing invariant preserved). */
static void
map_del(Map *m, int64_t key)
{
    size_t mask = m->cap - 1;
    size_t i = (size_t)hash64((uint64_t)key) & mask;
    for (;;) {
        if (m->slots[i].key == key) {
            break;
        }
        if (m->slots[i].key == MAP_EMPTY) {
            return;
        }
        i = (i + 1) & mask;
    }
    m->n -= 1;
    size_t j = i;
    for (;;) {
        m->slots[i].key = MAP_EMPTY;
        size_t k;
        for (;;) {
            j = (j + 1) & mask;
            if (m->slots[j].key == MAP_EMPTY) {
                return;
            }
            k = (size_t)hash64((uint64_t)m->slots[j].key) & mask;
            /* move slot j back if its home slot k is cyclically
             * outside (i, j] */
            if (i <= j ? (k <= i || k > j) : (k <= i && k > j)) {
                break;
            }
        }
        m->slots[i] = m->slots[j];
        i = j;
    }
}

static void
map_free(Map *m)
{
    free(m->slots);
    m->slots = NULL;
    m->cap = m->n = 0;
}

/* ---------------------------------------------------------------- */
/* Set-associative tag arrays (CacheSet.ways, MRU first)             */
/* ---------------------------------------------------------------- */

typedef struct {
    int64_t block;
    int64_t fill_seq;
    int64_t next_use;
    int64_t cost_q;
    uint8_t dirty;
} Way;

typedef struct {
    Way *pool;     /* n_sets * assoc, set i at pool + i * assoc */
    int32_t *len;  /* occupancy per set */
    int64_t n_sets;
    int64_t assoc;
} Tags;

static int
tags_init(Tags *t, int64_t n_sets, int64_t assoc)
{
    t->pool = (Way *)calloc((size_t)(n_sets * assoc), sizeof(Way));
    t->len = (int32_t *)calloc((size_t)n_sets, sizeof(int32_t));
    t->n_sets = n_sets;
    t->assoc = assoc;
    return (t->pool && t->len) ? 0 : -1;
}

static void
tags_free(Tags *t)
{
    free(t->pool);
    free(t->len);
    t->pool = NULL;
    t->len = NULL;
}

#define TAGS_SET(t, s) ((t)->pool + (s) * (t)->assoc)

static inline int
tags_find(const Way *w, int32_t len, int64_t block)
{
    for (int32_t i = 0; i < len; i++) {
        if (w[i].block == block) {
            return i;
        }
    }
    return -1;
}

/* Move position `pos` to MRU (ways.insert(0, ways.pop(pos))). */
static inline void
tags_touch(Way *w, int32_t pos)
{
    if (pos == 0) {
        return;
    }
    Way tmp = w[pos];
    memmove(w + 1, w, (size_t)pos * sizeof(Way));
    w[0] = tmp;
}

static inline void
tags_insert_mru(Way *w, int32_t *len, Way v)
{
    memmove(w + 1, w, (size_t)(*len) * sizeof(Way));
    w[0] = v;
    *len += 1;
}

/* CacheSet.insert_at: positions at or past the fill level append. */
static inline void
tags_insert_at(Way *w, int32_t *len, int32_t pos, Way v)
{
    if (pos >= *len) {
        w[*len] = v;
    }
    else {
        memmove(w + pos + 1, w + pos, (size_t)(*len - pos) * sizeof(Way));
        w[pos] = v;
    }
    *len += 1;
}

static inline Way
tags_evict(Way *w, int32_t *len, int32_t pos)
{
    Way v = w[pos];
    memmove(w + pos, w + pos + 1, (size_t)(*len - pos - 1) * sizeof(Way));
    *len -= 1;
    return v;
}

/* ---------------------------------------------------------------- */
/* EHC per-block interval rings (deque(maxlen=horizon) semantics)    */
/* ---------------------------------------------------------------- */

typedef struct {
    int64_t *vals; /* cap * horizon */
    int32_t *head;
    int32_t *cnt;
    Py_ssize_t n, cap;
    int64_t horizon;
} IvPool;

static int
ivpool_init(IvPool *p, int64_t horizon)
{
    memset(p, 0, sizeof(*p));
    p->horizon = horizon > 0 ? horizon : 1;
    return 0;
}

static Py_ssize_t
ivpool_new(IvPool *p)
{
    if (p->n == p->cap) {
        Py_ssize_t cap = p->cap ? p->cap * 2 : 256;
        int64_t *vals = (int64_t *)realloc(
            p->vals, (size_t)(cap * p->horizon) * sizeof(int64_t));
        int32_t *head = (int32_t *)realloc(
            p->head, (size_t)cap * sizeof(int32_t));
        int32_t *cnt = (int32_t *)realloc(
            p->cnt, (size_t)cap * sizeof(int32_t));
        if (vals) {
            p->vals = vals;
        }
        if (head) {
            p->head = head;
        }
        if (cnt) {
            p->cnt = cnt;
        }
        if (!vals || !head || !cnt) {
            return -1;
        }
        p->cap = cap;
    }
    Py_ssize_t idx = p->n++;
    p->head[idx] = 0;
    p->cnt[idx] = 0;
    return idx;
}

static void
ivpool_append(IvPool *p, Py_ssize_t idx, int64_t v)
{
    int64_t h = p->horizon;
    int64_t *ring = p->vals + idx * h;
    if (p->cnt[idx] == (int32_t)h) {
        ring[p->head[idx]] = v;
        p->head[idx] = (int32_t)((p->head[idx] + 1) % h);
    }
    else {
        ring[(p->head[idx] + p->cnt[idx]) % h] = v;
        p->cnt[idx] += 1;
    }
}

static int64_t
ivpool_mean_floor(const IvPool *p, Py_ssize_t idx)
{
    int64_t h = p->horizon;
    const int64_t *ring = p->vals + idx * h;
    int64_t sum = 0;
    int32_t cnt = p->cnt[idx];
    for (int32_t i = 0; i < cnt; i++) {
        sum += ring[(p->head[idx] + i) % h];
    }
    /* reuse intervals are positive, so C division == Python floor */
    return sum / cnt;
}

static void
ivpool_free(IvPool *p)
{
    free(p->vals);
    free(p->head);
    free(p->cnt);
    memset(p, 0, sizeof(*p));
}

/* ---------------------------------------------------------------- */
/* Kernel state                                                      */
/* ---------------------------------------------------------------- */

enum {
    POL_LRU = 0,
    POL_LIN = 1,
    POL_EHC = 2,
    POL_AWRP = 3,
    POL_LIP = 4,
    POL_BIP = 5,
    POL_PLRU = 6,
    POL_COST_PLRU = 7
};
enum {
    CTRL_NONE = 0,
    CTRL_SBAR = 1,
    CTRL_CBS = 2,
    CTRL_DIP = 3,
    CTRL_TOURNAMENT = 4
};

/* One replacement-policy instance the L2 can dispatch to: the fixed
 * policy (slot 0), DIP's LRU and BIP (slots 0 and 1), or each distinct
 * tournament candidate.  `fills` is BIPPolicy._fills, so candidates
 * sharing one Python instance share one slot and one counter. */
typedef struct {
    int64_t kind;
    int64_t lam;    /* LIN lambda */
    int64_t period; /* BIP: every period-th fill inserts at MRU */
    int64_t fills;  /* BIP fill counter */
} PolSlot;

typedef struct {
    /* trace */
    const int64_t *addrs;
    const int8_t *kinds;
    const int64_t *gaps;
    Py_ssize_t n;
    int64_t block_bits;
    int64_t ifetch_kind, store_kind;

    /* window */
    int64_t win_width, win_size;
    int64_t win_index;
    double win_time, retire_cummax, final_completion, stall_cycles;
    int64_t stall_events, long_stalls;
    double long_stall_threshold;
    WRing wp;

    /* store buffer */
    int64_t sb_capacity, sb_full_stalls;
    DHeap sb;

    /* caches */
    Tags l1d, l1i, l2;
    double l1d_latency, l1i_latency, l2_latency;
    int64_t l1d_seq, l1d_accesses, l1d_hits, l1d_misses, l1d_writebacks;
    int64_t l1i_seq, l1i_accesses, l1i_hits, l1i_misses, l1i_writebacks;
    int64_t l2_seq, l2_accesses, l2_hits, l2_misses, l2_writebacks;
    int64_t l2_compulsory;
    int track_seen;
    Map l2_seen;
    int64_t demand_ctr, compulsory_ctr;

    /* mshr */
    int64_t m_entries, n_adders;
    double m_now, m_acc;
    int64_t m_live, m_allocations, m_merges, m_full_stalls, m_peak;
    MRing md;
    DRing occ;
    Map m_in_flight; /* block -> (serial, completion) */
    int64_t m_serial;

    /* memory */
    int64_t memory_max;
    int64_t mem_requests, mem_writebacks, mem_queueing, mem_peak;
    DHeap mif;
    double bus_occupancy, bus_transfer_delay, bus_free;
    int64_t bus_contended, bus_transfers;
    int64_t n_banks;
    double bank_latency;
    double *bank_free;
    int64_t bank_conflicts, bank_accesses;

    /* cost + delta */
    double qstep;
    int64_t max_q;
    int64_t dist_counts[64];
    int64_t dist_total;
    double dist_cost_sum;
    int track_delta;
    int64_t delta_count;
    double delta_sum;
    int64_t delta_below, delta_mid, delta_high;
    Map delta_last; /* block -> cost (b) */

    /* policy */
    int64_t lin_lam;
    int64_t ehc_horizon, ehc_pending, never;
    Map ehc_last;      /* block -> last seq (a) */
    Map ehc_intervals; /* block -> ivpool index (a) */
    IvPool ehc_pool;
    double awrp_weight;
    int64_t awrp_fills;
    Map awrp_counts; /* block -> count (a) */
    PolSlot *slots;
    Py_ssize_t n_slots;
    /* tree-PLRU: assoc - 1 direction bits per L2 set, plus whether the
     * Python policy would have built that set's tree yet */
    uint8_t *plru_bits;
    uint8_t *plru_live;
    int64_t plru_threshold, plru_rejects;

    /* controller */
    int64_t controller_kind;
    /* 1 byte per l2 set: sbar 1 = leader; dip 1 = LRU leader, 2 = BIP
     * leader; tournament owner + 1; 0 = follower (an owned copy, so the
     * EndState outlives the params dict) */
    uint8_t *leaders;
    int64_t atd_assoc;
    Tags atd_lru, atd_lin; /* sbar uses atd_lru only */
    int64_t atd_seq, atd_accesses, atd_hits, atd_misses;
    int64_t atd2_seq, atd2_accesses, atd2_hits, atd2_misses;
    int cbs_local;
    Py_ssize_t n_psels;
    int64_t *psel_val, *psel_incs, *psel_decs;
    int64_t psel_max, psel_msb;
    int64_t deferred, follower_lin, follower_lru;
    /* tournament */
    Py_ssize_t n_cands;
    int64_t *cand_slot;
    double *t_scores, *t_accesses;
    double t_decay;

    int oom;
} Sim;

/* ---------------------------------------------------------------- */
/* Loop bodies                                                       */
/* ---------------------------------------------------------------- */

static int64_t
lin_choose(const Way *w, int32_t len, int64_t assoc, int64_t lam)
{
    int64_t mru = assoc - 1;
    int64_t best_pos = 0;
    int64_t best = mru + lam * w[0].cost_q;
    for (int32_t pos = 1; pos < len; pos++) {
        int64_t score = mru - pos + lam * w[pos].cost_q;
        if (score <= best) {
            best = score;
            best_pos = pos;
        }
    }
    return best_pos;
}

static int64_t
ehc_choose(const Way *w, int32_t len)
{
    int64_t farthest_pos = 0;
    int64_t farthest = -1;
    for (int32_t pos = 0; pos < len; pos++) {
        if (w[pos].next_use > farthest) {
            farthest = w[pos].next_use;
            farthest_pos = pos;
        }
    }
    return farthest_pos;
}

static int64_t
awrp_count(Sim *s, int64_t block)
{
    MapSlot *c = map_get(&s->awrp_counts, block);
    return c ? c->a : 0;
}

static int64_t
awrp_choose(Sim *s, const Way *w, int32_t len, int64_t assoc)
{
    double weight = s->awrp_weight;
    int64_t mru = assoc - 1;
    int64_t best_pos = 0;
    double best = (double)mru + weight * (double)awrp_count(s, w[0].block);
    for (int32_t pos = 1; pos < len; pos++) {
        double rank = (double)(mru - pos) +
                      weight * (double)awrp_count(s, w[pos].block);
        if (rank <= best) {
            best = rank;
            best_pos = pos;
        }
    }
    return best_pos;
}

static void
awrp_on_hit(Sim *s, int64_t block)
{
    MapSlot *c = map_get(&s->awrp_counts, block);
    int64_t current = c ? c->a : 0;
    if (current < 16) { /* COUNT_CAP */
        if (c) {
            c->a = current + 1;
        }
        else if (!map_put(&s->awrp_counts, block, current + 1, 0.0)) {
            s->oom = 1;
        }
    }
}

static void
awrp_on_fill(Sim *s, int64_t block)
{
    if (!map_put(&s->awrp_counts, block, 1, 0.0)) {
        s->oom = 1;
        return;
    }
    s->awrp_fills += 1;
    if (s->awrp_fills % 4096 == 0) { /* DECAY_FILLS */
        Map fresh;
        if (map_init(&fresh, s->awrp_counts.n) < 0) {
            s->oom = 1;
            return;
        }
        for (size_t i = 0; i < s->awrp_counts.cap; i++) {
            MapSlot *slot = &s->awrp_counts.slots[i];
            if (slot->key != MAP_EMPTY && slot->a > 1) {
                if (!map_put(&fresh, slot->key, slot->a >> 1, 0.0)) {
                    s->oom = 1;
                    map_free(&fresh);
                    return;
                }
            }
        }
        map_free(&s->awrp_counts);
        s->awrp_counts = fresh;
        if (!map_put(&s->awrp_counts, block, 1, 0.0)) {
            s->oom = 1;
        }
    }
}

static void
ehc_note(Sim *s, int64_t block, int64_t seq)
{
    MapSlot *last = map_get(&s->ehc_last, block);
    if (!last) {
        if (!map_put(&s->ehc_last, block, seq, 0.0)) {
            s->oom = 1;
        }
        s->ehc_pending = s->never;
        return;
    }
    int64_t interval = seq - last->a;
    last->a = seq;
    MapSlot *iv = map_get(&s->ehc_intervals, block);
    Py_ssize_t idx;
    if (!iv) {
        idx = ivpool_new(&s->ehc_pool);
        if (idx < 0 || !map_put(&s->ehc_intervals, block, idx, 0.0)) {
            s->oom = 1;
            return;
        }
    }
    else {
        idx = (Py_ssize_t)iv->a;
    }
    ivpool_append(&s->ehc_pool, idx, interval);
    s->ehc_pending = seq + ivpool_mean_floor(&s->ehc_pool, idx);
}

/* _TreeState.touch: point every bit on the way's path away from it. */
static void
plru_touch(uint8_t *bits, int64_t n_ways, int64_t way)
{
    int64_t node = 0, low = 0, high = n_ways;
    while (high - low > 1) {
        int64_t mid = (low + high) / 2;
        if (way < mid) {
            bits[node] = 1;
            node = 2 * node + 1;
            high = mid;
        }
        else {
            bits[node] = 0;
            node = 2 * node + 2;
            low = mid;
        }
    }
}

/* _TreeState.victim: follow the bits from the root. */
static int64_t
plru_victim(const uint8_t *bits, int64_t n_ways)
{
    int64_t node = 0, low = 0, high = n_ways;
    while (high - low > 1) {
        int64_t mid = (low + high) / 2;
        if (bits[node] == 0) {
            node = 2 * node + 1;
            high = mid;
        }
        else {
            node = 2 * node + 2;
            low = mid;
        }
    }
    return low;
}

/* TreePLRUPolicy.choose_victim, plus CostAwareTreePLRUPolicy's reject
 * loop (re-point the tree past a protected way, up to the budget). */
static int64_t
plru_choose(Sim *s, int64_t set_index, const Way *w, int cost_aware)
{
    int64_t n_ways = s->l2.assoc;
    uint8_t *bits = s->plru_bits + set_index * (n_ways - 1);
    int64_t victim = plru_victim(bits, n_ways);
    if (cost_aware) {
        for (int64_t i = 0; i < s->plru_rejects; i++) {
            if (w[victim].cost_q < s->plru_threshold) {
                break;
            }
            plru_touch(bits, n_ways, victim);
            victim = plru_victim(bits, n_ways);
        }
    }
    return victim;
}

/* TournamentController.winner: lowest normalized score, first on ties
 * (min() over the rates list). */
static int64_t
tournament_winner(const Sim *s)
{
    int64_t best = 0;
    double best_rate = s->t_scores[0] / s->t_accesses[0];
    for (Py_ssize_t i = 1; i < s->n_cands; i++) {
        double rate = s->t_scores[i] / s->t_accesses[i];
        if (rate < best_rate) {
            best_rate = rate;
            best = i;
        }
    }
    return best;
}

/* The decay half of TournamentController.observe_access. */
static void
tournament_decay(Sim *s, int64_t owner)
{
    s->t_scores[owner] *= s->t_decay;
    s->t_accesses[owner] = s->t_accesses[owner] * s->t_decay + 1.0;
}

/* PSEL saturating updates (PolicySelector.increment/decrement) */

static void
psel_increment(Sim *s, Py_ssize_t idx, int64_t amount)
{
    int64_t v = s->psel_val[idx] + amount;
    if (v > s->psel_max) {
        v = s->psel_max;
    }
    s->psel_val[idx] = v;
    s->psel_incs[idx] += amount;
}

static void
psel_decrement(Sim *s, Py_ssize_t idx, int64_t amount)
{
    int64_t v = s->psel_val[idx] - amount;
    if (v < 0) {
        v = 0;
    }
    s->psel_val[idx] = v;
    s->psel_decs[idx] += amount;
}

/* The batched kernel's deferred `pending(cost_q)` callables. */
static void
apply_pending(Sim *s, const MEntry *e, int64_t amount)
{
    if (e->pend_kind == 1) {
        psel_decrement(s, 0, amount);
    }
    else if (e->pend_kind == 2) {
        if (e->pend_fill_set >= 0) {
            Way *w = TAGS_SET(&s->atd_lin, e->pend_fill_set);
            int32_t len = s->atd_lin.len[e->pend_fill_set];
            for (int32_t i = 0; i < len; i++) {
                if (w[i].fill_seq == e->pend_fill_seq) {
                    w[i].cost_q = amount;
                    break;
                }
            }
        }
        if (e->pend_psel_op == 1) {
            psel_increment(s, e->pend_psel_idx, amount);
        }
        else if (e->pend_psel_op == 2) {
            psel_decrement(s, e->pend_psel_idx, amount);
        }
    }
    else if (e->pend_kind == 3) {
        /* the tournament's `charge`: +1 keeps zero-cost misses from
         * being free */
        s->t_scores[e->pend_psel_idx] += 1.0 + (double)amount;
    }
}

/* Cost sink: `sentry[2].cost_q = bkt` on the MTD fill state.  The
 * state is identified by (set_index, fill_seq); if it was evicted the
 * write lands nowhere, exactly like Python patching a dead object. */
static void
patch_cost(Sim *s, int32_t set_index, int64_t fill_seq, int64_t bkt)
{
    Way *w = TAGS_SET(&s->l2, set_index);
    int32_t len = s->l2.len[set_index];
    for (int32_t i = 0; i < len; i++) {
        if (w[i].fill_seq == fill_seq) {
            w[i].cost_q = bkt;
            return;
        }
    }
}

/* MSHRFile._advance sweep (and drain when `all` is set): pops due
 * entries, integrates Algorithm 1, quantizes, feeds the histogram,
 * delta tracker and deferred updates — then advances the clock. */
static void
mshr_sweep(Sim *s, double target, int all)
{
    double now = s->m_now;
    while (s->md.n && (all || MRING_FRONT(&s->md).complete <= target)) {
        MEntry e = mring_popleft(&s->md);
        if (e.complete > now) {
            s->m_acc += (e.complete - now) / (double)s->m_live;
            now = e.complete;
        }
        double cost = s->m_acc - e.acc_start;
        if (s->n_adders) {
            cost = floor(cost * (double)s->n_adders) / (double)s->n_adders;
        }
        s->m_live -= 1;
        MapSlot *slot = map_get(&s->m_in_flight, e.block);
        if (slot && slot->a == e.serial) {
            map_del(&s->m_in_flight, e.block);
        }
        int64_t bkt = (int64_t)py_floordiv(cost, s->qstep);
        if (bkt > s->max_q) {
            bkt = s->max_q;
        }
        patch_cost(s, e.set_index, e.fill_seq, bkt);
        s->dist_counts[bkt] += 1;
        s->dist_total += 1;
        s->dist_cost_sum += cost;
        if (s->track_delta) {
            MapSlot *prev = map_get(&s->delta_last, e.block);
            if (prev) {
                double dv = fabs(cost - prev->b);
                prev->b = cost;
                s->delta_count += 1;
                s->delta_sum += dv;
                if (dv < 60) {
                    s->delta_below += 1;
                }
                else if (dv < 120) {
                    s->delta_mid += 1;
                }
                else {
                    s->delta_high += 1;
                }
            }
            else if (!map_put(&s->delta_last, e.block, 0, cost)) {
                s->oom = 1;
            }
        }
        if (e.pend_kind) {
            apply_pending(s, &e, bkt);
        }
    }
    if (target > now && s->m_live) {
        s->m_acc += (target - now) / (double)s->m_live;
    }
    s->m_now = target > now ? target : now;
}

/* MemoryController.write_line: bus first, then bank. */
static void
write_back_mem(Sim *s, int64_t wb_block, double when)
{
    while (s->mif.n && s->mif.a[0] <= when) {
        dheap_pop(&s->mif);
    }
    while (s->mif.n >= s->memory_max) {
        double earliest = dheap_pop(&s->mif);
        if (earliest > when) {
            when = earliest;
            s->mem_queueing += 1;
        }
    }
    double start = s->bus_free;
    if (start > when) {
        s->bus_contended += 1;
    }
    else {
        start = when;
    }
    s->bus_free = start + s->bus_occupancy;
    s->bus_transfers += 1;
    double arrive = start + s->bus_transfer_delay;
    int64_t bank = wb_block % s->n_banks;
    double bank_start = s->bank_free[bank];
    if (bank_start > arrive) {
        s->bank_conflicts += 1;
    }
    else {
        bank_start = arrive;
    }
    double data_ready = bank_start + s->bank_latency;
    s->bank_free[bank] = data_ready;
    s->bank_accesses += 1;
    if (dheap_push(&s->mif, data_ready) < 0) {
        s->oom = 1;
    }
    if (s->mif.n > s->mem_peak) {
        s->mem_peak = s->mif.n;
    }
    s->mem_requests += 1;
    s->mem_writebacks += 1;
}

/* StoreBuffer.admit */
static double
sb_admit(Sim *s, double when, double completion)
{
    DHeap *h = &s->sb;
    while (h->n && h->a[0] <= when) {
        dheap_pop(h);
    }
    while (h->n >= s->sb_capacity) {
        double earliest = dheap_pop(h);
        if (earliest > when) {
            when = earliest;
            s->sb_full_stalls += 1;
        }
    }
    if (dheap_push(h, completion > when ? completion : when) < 0) {
        s->oom = 1;
    }
    return when;
}

/* ---------------------------------------------------------------- */
/* The replay loop (Simulator._replay_batched, line for line)        */
/* ---------------------------------------------------------------- */

static void
run_loop(Sim *s)
{
    const double dwidth = (double)s->win_width;
    int64_t cum = 0;
    const int64_t win_index0 = s->win_index;

    for (Py_ssize_t i = 0; i < s->n && !s->oom; i++) {
        int64_t block = s->addrs[i] >> s->block_bits;
        int64_t kind = s->kinds[i];
        int64_t g1 = s->gaps[i] + 1;
        cum += g1;
        int64_t target = cum + win_index0;
        double dt = (double)g1 / dwidth;
        int64_t set_index = block % s->l2.n_sets;
        int64_t bank = block % s->n_banks;

        /* ---- WindowModel.advance, inlined ---- */
        if (s->wp.n && WRING_FRONT(&s->wp).index + s->win_size <= target) {
            while (s->wp.n &&
                   WRING_FRONT(&s->wp).index + s->win_size <= target) {
                WinEntry e = wring_popleft(&s->wp);
                int64_t reach = e.index + s->win_size;
                double arrival =
                    s->win_time + (double)(reach - s->win_index) / dwidth;
                if (e.frontier > arrival) {
                    s->stall_cycles += e.frontier - arrival;
                    s->stall_events += 1;
                    if (e.frontier - arrival >= s->long_stall_threshold) {
                        s->long_stalls += 1;
                    }
                    s->win_time = e.frontier;
                }
                else {
                    s->win_time = arrival;
                }
                s->win_index = reach;
            }
            s->win_time += (double)(target - s->win_index) / dwidth;
        }
        else {
            s->win_time += dt;
        }
        s->win_index = target;
        double dispatch = s->win_time;

        /* ---- L1 probe ---- */
        int is_ifetch, is_store;
        double l1_done;
        Tags *l1;
        int64_t l1_set;
        if (kind == s->ifetch_kind) {
            l1 = &s->l1i;
            l1_set = block % s->l1i.n_sets;
            Way *w = TAGS_SET(l1, l1_set);
            int32_t pos = tags_find(w, l1->len[l1_set], block);
            if (pos >= 0) {
                s->l1i_seq += 1;
                s->l1i_accesses += 1;
                s->l1i_hits += 1;
                tags_touch(w, pos);
                double completion = dispatch + s->l1i_latency;
                if (completion > s->retire_cummax) {
                    s->retire_cummax = completion;
                }
                if (completion > s->final_completion) {
                    s->final_completion = completion;
                }
                if (wring_append(&s->wp, s->win_index, s->retire_cummax) < 0) {
                    s->oom = 1;
                }
                continue;
            }
            is_ifetch = 1;
            is_store = 0;
            l1_done = dispatch + s->l1i_latency;
        }
        else {
            l1 = &s->l1d;
            l1_set = block % s->l1d.n_sets;
            Way *w = TAGS_SET(l1, l1_set);
            int32_t pos = tags_find(w, l1->len[l1_set], block);
            is_store = kind == s->store_kind;
            if (pos >= 0) {
                s->l1d_seq += 1;
                s->l1d_accesses += 1;
                s->l1d_hits += 1;
                tags_touch(w, pos);
                if (is_store) {
                    w[0].dirty = 1;
                    double admitted =
                        sb_admit(s, dispatch, dispatch + s->l1d_latency);
                    if (admitted > dispatch) {
                        s->stall_cycles += admitted - s->win_time;
                        s->stall_events += 1;
                        if (admitted - s->win_time >=
                            s->long_stall_threshold) {
                            s->long_stalls += 1;
                        }
                        s->win_time = admitted;
                    }
                }
                else {
                    double completion = dispatch + s->l1d_latency;
                    if (completion > s->retire_cummax) {
                        s->retire_cummax = completion;
                    }
                    if (completion > s->final_completion) {
                        s->final_completion = completion;
                    }
                    if (wring_append(&s->wp, s->win_index,
                                     s->retire_cummax) < 0) {
                        s->oom = 1;
                    }
                }
                continue;
            }
            is_ifetch = 0;
            l1_done = dispatch + s->l1d_latency;
        }

        /* ---- MSHRFile._advance(dispatch) ---- */
        if (dispatch > s->m_now) {
            if (s->md.n && MRING_FRONT(&s->md).complete <= dispatch) {
                mshr_sweep(s, dispatch, 0);
            }
            else {
                if (s->m_live) {
                    s->m_acc +=
                        (dispatch - s->m_now) / (double)s->m_live;
                }
                s->m_now = dispatch;
            }
        }

        /* ---- L1 fill ---- */
        {
            int64_t seq;
            if (is_ifetch) {
                seq = s->l1i_seq;
                s->l1i_seq = seq + 1;
                s->l1i_accesses += 1;
                s->l1i_misses += 1;
            }
            else {
                seq = s->l1d_seq;
                s->l1d_seq = seq + 1;
                s->l1d_accesses += 1;
                s->l1d_misses += 1;
            }
            Way *w = TAGS_SET(l1, l1_set);
            int32_t *len = &l1->len[l1_set];
            Way l1_victim;
            int have_victim = 0;
            if (*len >= (int32_t)l1->assoc) {
                l1_victim = tags_evict(w, len, *len - 1);
                have_victim = 1;
                if (l1_victim.dirty) {
                    if (is_ifetch) {
                        s->l1i_writebacks += 1;
                    }
                    else {
                        s->l1d_writebacks += 1;
                    }
                }
            }
            Way nw = {block, seq, 0, 0, 0};
            tags_insert_mru(w, len, nw);
            if (is_store) {
                w[0].dirty = 1;
            }
            if (have_victim && l1_victim.dirty) {
                /* Simulator._l1_writeback, inlined */
                int64_t vb = l1_victim.block;
                int64_t vset = vb % s->l2.n_sets;
                Way *lw = TAGS_SET(&s->l2, vset);
                int32_t pos = tags_find(lw, s->l2.len[vset], vb);
                if (pos >= 0) {
                    lw[pos].dirty = 1;
                }
                else {
                    write_back_mem(s, vb, dispatch);
                }
            }
        }

        /* ---- L2 lookup ---- */
        int pol;
        int is_leader = 0;
        Py_ssize_t psel_idx = 0;
        PolSlot *ps = s->slots; /* the dispatched instance (not SBAR/CBS) */
        int64_t lam = s->lin_lam;
        if (s->controller_kind == CTRL_NONE) {
            pol = (int)ps->kind;
            lam = ps->lam;
        }
        else if (s->controller_kind == CTRL_DIP) {
            /* DIPController.policy_for_set */
            is_leader = s->leaders[set_index];
            if (is_leader) {
                ps = s->slots + (is_leader - 1);
            }
            else if (s->psel_val[0] >= s->psel_msb) {
                ps = s->slots + 1; /* LRU leaders miss more: BIP */
            }
            pol = (int)ps->kind;
        }
        else if (s->controller_kind == CTRL_TOURNAMENT) {
            /* TournamentController.policy_for_set */
            is_leader = s->leaders[set_index];
            int64_t cand = is_leader ? is_leader - 1 : tournament_winner(s);
            ps = s->slots + s->cand_slot[cand];
            pol = (int)ps->kind;
            lam = ps->lam;
        }
        else if (s->controller_kind == CTRL_SBAR) {
            is_leader = s->leaders[set_index];
            if (is_leader) {
                pol = POL_LIN;
            }
            else if (s->psel_val[0] >= s->psel_msb) {
                s->follower_lin += 1;
                pol = POL_LIN;
            }
            else {
                s->follower_lru += 1;
                pol = POL_LRU;
            }
        }
        else {
            psel_idx = s->cbs_local ? (Py_ssize_t)set_index : 0;
            pol = s->psel_val[psel_idx] >= s->psel_msb ? POL_LIN : POL_LRU;
        }
        int64_t seq = s->l2_seq;
        s->l2_seq = seq + 1;
        s->l2_accesses += 1;
        if (pol == POL_EHC) {
            ehc_note(s, block, seq);
        }
        Way *lw = TAGS_SET(&s->l2, set_index);
        int32_t *llen = &s->l2.len[set_index];
        int32_t pos = tags_find(lw, *llen, block);
        double completion;
        if (pos >= 0) {
            /* ---- L2 hit ---- */
            s->l2_hits += 1;
            if (pol == POL_PLRU || pol == POL_COST_PLRU) {
                /* ways are pinned to slots: the tree bits carry all
                 * recency, nothing moves */
                plru_touch(s->plru_bits + set_index * (s->l2.assoc - 1),
                           s->l2.assoc, pos);
                s->plru_live[set_index] = 1;
            }
            else {
                tags_touch(lw, pos); /* default move-to-MRU */
                pos = 0;
                if (pol == POL_EHC) {
                    lw[0].next_use = s->ehc_pending;
                }
                else if (pol == POL_AWRP) {
                    awrp_on_hit(s, block);
                }
            }
            int64_t hit_cost_q = lw[pos].cost_q;
            if (s->controller_kind == CTRL_TOURNAMENT) {
                if (is_leader) {
                    tournament_decay(s, is_leader - 1);
                }
            }
            else if (s->controller_kind == CTRL_SBAR) {
                if (is_leader) {
                    int64_t aseq = s->atd_seq;
                    s->atd_seq = aseq + 1;
                    s->atd_accesses += 1;
                    Way *aw = TAGS_SET(&s->atd_lru, set_index);
                    int32_t *alen = &s->atd_lru.len[set_index];
                    int32_t apos = tags_find(aw, *alen, block);
                    if (apos >= 0) {
                        s->atd_hits += 1;
                        tags_touch(aw, apos);
                    }
                    else {
                        s->atd_misses += 1;
                        if (*alen >= (int32_t)s->atd_assoc) {
                            tags_evict(aw, alen, *alen - 1);
                        }
                        Way anw = {block, aseq, 0, 0, 0};
                        tags_insert_mru(aw, alen, anw);
                        psel_increment(s, 0, hit_cost_q);
                    }
                }
            }
            else if (s->controller_kind == CTRL_CBS) {
                int64_t aseq = s->atd_seq;
                s->atd_seq = aseq + 1;
                s->atd_accesses += 1;
                Way *aw = TAGS_SET(&s->atd_lru, set_index);
                int32_t *alen = &s->atd_lru.len[set_index];
                int32_t apos = tags_find(aw, *alen, block);
                int lru_hit;
                if (apos >= 0) {
                    s->atd_hits += 1;
                    lru_hit = 1;
                    tags_touch(aw, apos);
                }
                else {
                    s->atd_misses += 1;
                    lru_hit = 0;
                    if (*alen >= (int32_t)s->atd_assoc) {
                        tags_evict(aw, alen, *alen - 1);
                    }
                    Way anw = {block, aseq, 0, 0, 0};
                    tags_insert_mru(aw, alen, anw);
                }
                aseq = s->atd2_seq;
                s->atd2_seq = aseq + 1;
                s->atd2_accesses += 1;
                aw = TAGS_SET(&s->atd_lin, set_index);
                alen = &s->atd_lin.len[set_index];
                apos = tags_find(aw, *alen, block);
                int lin_hit;
                if (apos >= 0) {
                    s->atd2_hits += 1;
                    lin_hit = 1;
                    tags_touch(aw, apos);
                }
                else {
                    s->atd2_misses += 1;
                    lin_hit = 0;
                    if (*alen >= (int32_t)s->atd_assoc) {
                        int64_t vpos =
                            lin_choose(aw, *alen, s->atd_assoc, s->lin_lam);
                        tags_evict(aw, alen, (int32_t)vpos);
                    }
                    Way anw = {block, aseq, 0, hit_cost_q, 0};
                    tags_insert_mru(aw, alen, anw);
                }
                if (lin_hit != lru_hit) {
                    if (lin_hit) {
                        psel_increment(s, psel_idx, hit_cost_q);
                    }
                    else {
                        psel_decrement(s, psel_idx, hit_cost_q);
                    }
                }
            }
            completion = l1_done + s->l2_latency;
            MapSlot *entry = map_get(&s->m_in_flight, block);
            if (entry) {
                double in_flight = entry->b;
                if (in_flight <= l1_done) {
                    map_del(&s->m_in_flight, block);
                }
                else if (in_flight > completion) {
                    completion = in_flight;
                }
            }
        }
        else {
            /* ---- L2 miss: fill, then the MSHR/memory path ---- */
            s->l2_misses += 1;
            Way victim;
            int have_victim = 0;
            int64_t vpos = *llen; /* a cold PLRU fill takes the next slot */
            if (*llen >= (int32_t)s->l2.assoc) {
                if (pol == POL_LIN) {
                    vpos = lin_choose(lw, *llen, s->l2.assoc, lam);
                }
                else if (pol == POL_EHC) {
                    vpos = ehc_choose(lw, *llen);
                }
                else if (pol == POL_AWRP) {
                    vpos = awrp_choose(s, lw, *llen, s->l2.assoc);
                }
                else if (pol == POL_PLRU || pol == POL_COST_PLRU) {
                    vpos = plru_choose(s, set_index, lw,
                                       pol == POL_COST_PLRU);
                }
                else {
                    vpos = *llen - 1; /* LRU, LIP, BIP: the LRU tail */
                }
                victim = tags_evict(lw, llen, (int32_t)vpos);
                have_victim = 1;
                if (victim.dirty) {
                    s->l2_writebacks += 1;
                }
            }
            Way nst = {block, seq, 0, 0, 0};
            if (pol == POL_EHC) {
                nst.next_use = s->ehc_pending; /* EHCPolicy.on_fill */
                tags_insert_mru(lw, llen, nst);
            }
            else if (pol == POL_AWRP) {
                awrp_on_fill(s, block); /* AWRPPolicy.on_fill */
                tags_insert_mru(lw, llen, nst);
            }
            else if (pol == POL_LIP) {
                tags_insert_at(lw, llen, *llen, nst); /* insert_lru */
            }
            else if (pol == POL_BIP) {
                ps->fills += 1;
                if (ps->fills % ps->period == 0) {
                    tags_insert_mru(lw, llen, nst);
                }
                else {
                    tags_insert_at(lw, llen, *llen, nst);
                }
            }
            else if (pol == POL_PLRU || pol == POL_COST_PLRU) {
                /* the fill lands in the victim's physical slot */
                tags_insert_at(lw, llen, (int32_t)vpos, nst);
                plru_touch(s->plru_bits + set_index * (s->l2.assoc - 1),
                           s->l2.assoc, vpos);
                s->plru_live[set_index] = 1;
            }
            else {
                tags_insert_mru(lw, llen, nst);
            }
            int compulsory = 0;
            if (s->track_seen) {
                if (!map_get(&s->l2_seen, block)) {
                    if (!map_put(&s->l2_seen, block, 0, 0.0)) {
                        s->oom = 1;
                    }
                    compulsory = 1;
                    s->l2_compulsory += 1;
                }
            }
            uint8_t pend_kind = 0;
            int8_t pend_psel_op = 0;
            int32_t pend_fill_set = -1;
            int64_t pend_fill_seq = 0;
            if (s->controller_kind == CTRL_DIP) {
                /* DIPController.observe_access: raw leader misses */
                if (is_leader == 1) {
                    psel_increment(s, 0, 1);
                }
                else if (is_leader == 2) {
                    psel_decrement(s, 0, 1);
                }
            }
            else if (s->controller_kind == CTRL_TOURNAMENT) {
                if (is_leader) {
                    tournament_decay(s, is_leader - 1);
                    s->deferred += 1;
                    pend_kind = 3;
                    psel_idx = is_leader - 1; /* the charged owner */
                }
            }
            else if (s->controller_kind == CTRL_SBAR) {
                if (is_leader) {
                    int64_t aseq = s->atd_seq;
                    s->atd_seq = aseq + 1;
                    s->atd_accesses += 1;
                    Way *aw = TAGS_SET(&s->atd_lru, set_index);
                    int32_t *alen = &s->atd_lru.len[set_index];
                    int32_t apos = tags_find(aw, *alen, block);
                    if (apos >= 0) {
                        s->atd_hits += 1;
                        tags_touch(aw, apos);
                        s->deferred += 1;
                        pend_kind = 1; /* sbar_psel.decrement */
                    }
                    else {
                        s->atd_misses += 1;
                        if (*alen >= (int32_t)s->atd_assoc) {
                            tags_evict(aw, alen, *alen - 1);
                        }
                        Way anw = {block, aseq, 0, 0, 0};
                        tags_insert_mru(aw, alen, anw);
                    }
                }
            }
            else if (s->controller_kind == CTRL_CBS) {
                int64_t aseq = s->atd_seq;
                s->atd_seq = aseq + 1;
                s->atd_accesses += 1;
                Way *aw = TAGS_SET(&s->atd_lru, set_index);
                int32_t *alen = &s->atd_lru.len[set_index];
                int32_t apos = tags_find(aw, *alen, block);
                int lru_hit;
                if (apos >= 0) {
                    s->atd_hits += 1;
                    lru_hit = 1;
                    tags_touch(aw, apos);
                }
                else {
                    s->atd_misses += 1;
                    lru_hit = 0;
                    if (*alen >= (int32_t)s->atd_assoc) {
                        tags_evict(aw, alen, *alen - 1);
                    }
                    Way anw = {block, aseq, 0, 0, 0};
                    tags_insert_mru(aw, alen, anw);
                }
                aseq = s->atd2_seq;
                s->atd2_seq = aseq + 1;
                s->atd2_accesses += 1;
                aw = TAGS_SET(&s->atd_lin, set_index);
                alen = &s->atd_lin.len[set_index];
                apos = tags_find(aw, *alen, block);
                int lin_hit;
                int have_lin_fill = 0;
                if (apos >= 0) {
                    s->atd2_hits += 1;
                    lin_hit = 1;
                    tags_touch(aw, apos);
                }
                else {
                    s->atd2_misses += 1;
                    lin_hit = 0;
                    if (*alen >= (int32_t)s->atd_assoc) {
                        int64_t vpos =
                            lin_choose(aw, *alen, s->atd_assoc, s->lin_lam);
                        tags_evict(aw, alen, (int32_t)vpos);
                    }
                    Way anw = {block, aseq, 0, 0, 0};
                    tags_insert_mru(aw, alen, anw);
                    have_lin_fill = 1;
                }
                if (lin_hit != lru_hit) {
                    pend_psel_op = lin_hit ? 1 : 2;
                }
                if (pend_psel_op || have_lin_fill) {
                    s->deferred += 1;
                    pend_kind = 2;
                    if (have_lin_fill) {
                        pend_fill_set = (int32_t)set_index;
                        pend_fill_seq = aseq;
                    }
                }
            }
            if (have_victim) {
                int64_t victim_block = victim.block;
                if (victim.dirty) {
                    write_back_mem(s, victim_block, l1_done);
                }
                /* inclusion: the victim leaves the L1s */
                int64_t vset = victim_block % s->l1d.n_sets;
                Way *vw = TAGS_SET(&s->l1d, vset);
                int32_t vpos =
                    tags_find(vw, s->l1d.len[vset], victim_block);
                if (vpos >= 0) {
                    tags_evict(vw, &s->l1d.len[vset], vpos);
                }
                vset = victim_block % s->l1i.n_sets;
                vw = TAGS_SET(&s->l1i, vset);
                vpos = tags_find(vw, s->l1i.len[vset], victim_block);
                if (vpos >= 0) {
                    tags_evict(vw, &s->l1i.len[vset], vpos);
                }
            }
            s->demand_ctr += 1;
            if (compulsory) {
                s->compulsory_ctr += 1;
            }

            /* merge probe (inline MSHRFile.lookup) */
            MapSlot *entry = map_get(&s->m_in_flight, block);
            if (entry && entry->b <= l1_done) {
                map_del(&s->m_in_flight, block);
                entry = NULL;
            }
            if (entry) {
                s->m_merges += 1;
                if (pend_kind) {
                    MEntry pe;
                    pe.pend_kind = pend_kind;
                    pe.pend_psel_op = pend_psel_op;
                    pe.pend_psel_idx = (int32_t)psel_idx;
                    pe.pend_fill_set = pend_fill_set;
                    pe.pend_fill_seq = pend_fill_seq;
                    apply_pending(s, &pe, 0);
                }
                completion = l1_done + s->l2_latency;
                if (entry->b > completion) {
                    completion = entry->b;
                }
            }
            else {
                /* inline MSHRFile.admission_time */
                double issue = l1_done + s->l2_latency;
                while (s->occ.n && DRING_FRONT(&s->occ) <= issue) {
                    dring_popleft(&s->occ);
                }
                while (s->occ.n >= s->m_entries) {
                    double earliest = dring_popleft(&s->occ);
                    if (earliest > issue) {
                        issue = earliest;
                        s->m_full_stalls += 1;
                    }
                }
                if (issue < s->m_now) {
                    issue = s->m_now;
                }
                /* inline MemoryController.read_line: bank, then bus */
                while (s->mif.n && s->mif.a[0] <= issue) {
                    dheap_pop(&s->mif);
                }
                double start_at = issue;
                while (s->mif.n >= s->memory_max) {
                    double earliest = dheap_pop(&s->mif);
                    if (earliest > start_at) {
                        start_at = earliest;
                        s->mem_queueing += 1;
                    }
                }
                double bank_start = s->bank_free[bank];
                if (bank_start > start_at) {
                    s->bank_conflicts += 1;
                }
                else {
                    bank_start = start_at;
                }
                double data_ready = bank_start + s->bank_latency;
                s->bank_free[bank] = data_ready;
                s->bank_accesses += 1;
                double bus_start = s->bus_free;
                if (bus_start > data_ready) {
                    s->bus_contended += 1;
                }
                else {
                    bus_start = data_ready;
                }
                s->bus_free = bus_start + s->bus_occupancy;
                s->bus_transfers += 1;
                completion = bus_start + s->bus_transfer_delay;
                if (dheap_push(&s->mif, completion) < 0) {
                    s->oom = 1;
                }
                if (s->mif.n > s->mem_peak) {
                    s->mem_peak = s->mif.n;
                }
                s->mem_requests += 1;

                /* ---- MSHRFile._advance(issue) ---- */
                if (s->md.n && MRING_FRONT(&s->md).complete <= issue) {
                    mshr_sweep(s, issue, 0);
                }
                else if (issue > s->m_now) {
                    if (s->m_live) {
                        s->m_acc +=
                            (issue - s->m_now) / (double)s->m_live;
                    }
                    s->m_now = issue;
                }

                /* inline MSHRFile.allocate (demand read) */
                MEntry me;
                me.complete = completion;
                me.acc_start = s->m_acc;
                me.block = block;
                me.serial = s->m_serial++;
                me.fill_seq = seq;
                me.set_index = (int32_t)set_index;
                me.pend_kind = pend_kind;
                me.pend_psel_op = pend_psel_op;
                me.pend_psel_idx = (int32_t)psel_idx;
                me.pend_fill_set = pend_fill_set;
                me.pend_fill_seq = pend_fill_seq;
                if (mring_append(&s->md, me) < 0 ||
                    dring_append(&s->occ, completion) < 0 ||
                    !map_put(&s->m_in_flight, block, me.serial,
                             completion)) {
                    s->oom = 1;
                }
                s->m_allocations += 1;
                s->m_live += 1;
                if (s->occ.n > s->m_peak) {
                    s->m_peak = s->occ.n;
                }
            }
        }

        /* ---- retire ---- */
        if (is_store) {
            double admitted = sb_admit(s, dispatch, completion);
            if (admitted > dispatch) {
                s->stall_cycles += admitted - s->win_time;
                s->stall_events += 1;
                if (admitted - s->win_time >= s->long_stall_threshold) {
                    s->long_stalls += 1;
                }
                s->win_time = admitted;
            }
        }
        else {
            if (completion > s->retire_cummax) {
                s->retire_cummax = completion;
            }
            if (completion > s->final_completion) {
                s->final_completion = completion;
            }
            if (wring_append(&s->wp, s->win_index, s->retire_cummax) < 0) {
                s->oom = 1;
            }
        }
    }

    /* ---- MSHRFile.drain ---- */
    if (s->md.n && !s->oom) {
        double horizon = MRING_FRONT(&s->md).complete;
        for (Py_ssize_t i = 0; i < s->md.n; i++) {
            double c = s->md.a[(s->md.head + i) % s->md.cap].complete;
            if (c > horizon) {
                horizon = c;
            }
        }
        mshr_sweep(s, horizon + 1, 1);
    }
}

/* ---------------------------------------------------------------- */
/* Parameter parsing                                                 */
/* ---------------------------------------------------------------- */

typedef struct {
    PyObject *d;
    int err;
} P;

static PyObject *
p_item(P *p, const char *key)
{
    if (p->err) {
        return NULL;
    }
    PyObject *v = PyDict_GetItemString(p->d, key);
    if (!v) {
        PyErr_Format(PyExc_KeyError, "replay kernel: missing param %s", key);
        p->err = 1;
    }
    return v;
}

static int64_t
p_int(P *p, const char *key)
{
    PyObject *v = p_item(p, key);
    if (!v) {
        return 0;
    }
    int64_t r = PyLong_AsLongLong(v);
    if (r == -1 && PyErr_Occurred()) {
        p->err = 1;
        return 0;
    }
    return r;
}

static double
p_dbl(P *p, const char *key)
{
    PyObject *v = p_item(p, key);
    if (!v) {
        return 0.0;
    }
    double r = PyFloat_AsDouble(v);
    if (r == -1.0 && PyErr_Occurred()) {
        p->err = 1;
        return 0.0;
    }
    return r;
}

/* Parse a list of ints into a fresh int64 array (caller frees). */
static int64_t *
p_int_list(P *p, const char *key, Py_ssize_t *n_out)
{
    PyObject *v = p_item(p, key);
    if (!v) {
        return NULL;
    }
    if (!PyList_Check(v)) {
        PyErr_Format(PyExc_TypeError, "param %s must be a list", key);
        p->err = 1;
        return NULL;
    }
    Py_ssize_t n = PyList_GET_SIZE(v);
    int64_t *a = (int64_t *)malloc((size_t)(n ? n : 1) * sizeof(int64_t));
    if (!a) {
        PyErr_NoMemory();
        p->err = 1;
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        a[i] = PyLong_AsLongLong(PyList_GET_ITEM(v, i));
        if (a[i] == -1 && PyErr_Occurred()) {
            p->err = 1;
            free(a);
            return NULL;
        }
    }
    *n_out = n;
    return a;
}

static double *
p_dbl_list(P *p, const char *key, Py_ssize_t *n_out)
{
    PyObject *v = p_item(p, key);
    if (!v) {
        return NULL;
    }
    if (!PyList_Check(v)) {
        PyErr_Format(PyExc_TypeError, "param %s must be a list", key);
        p->err = 1;
        return NULL;
    }
    Py_ssize_t n = PyList_GET_SIZE(v);
    double *a = (double *)malloc((size_t)(n ? n : 1) * sizeof(double));
    if (!a) {
        PyErr_NoMemory();
        p->err = 1;
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        a[i] = PyFloat_AsDouble(PyList_GET_ITEM(v, i));
        if (a[i] == -1.0 && PyErr_Occurred()) {
            p->err = 1;
            free(a);
            return NULL;
        }
    }
    *n_out = n;
    return a;
}

/* ---------------------------------------------------------------- */
/* Result marshalling                                                */
/* ---------------------------------------------------------------- */

static int
out_int(PyObject *d, const char *key, int64_t v)
{
    PyObject *o = PyLong_FromLongLong(v);
    if (!o) {
        return -1;
    }
    int rc = PyDict_SetItemString(d, key, o);
    Py_DECREF(o);
    return rc;
}

static int
out_dbl(PyObject *d, const char *key, double v)
{
    PyObject *o = PyFloat_FromDouble(v);
    if (!o) {
        return -1;
    }
    int rc = PyDict_SetItemString(d, key, o);
    Py_DECREF(o);
    return rc;
}

static int
out_obj(PyObject *d, const char *key, PyObject *o)
{
    /* steals o (even on failure) */
    if (!o) {
        return -1;
    }
    int rc = PyDict_SetItemString(d, key, o);
    Py_DECREF(o);
    return rc;
}

static PyObject *
emit_set(const Way *w, int32_t len)
{
    PyObject *entries = PyList_New(len);
    if (!entries) {
        return NULL;
    }
    for (int32_t i = 0; i < len; i++) {
        PyObject *t = Py_BuildValue(
            "(LLLLi)", (long long)w[i].block, (long long)w[i].fill_seq,
            (long long)w[i].next_use, (long long)w[i].cost_q,
            (int)w[i].dirty);
        if (!t) {
            Py_DECREF(entries);
            return NULL;
        }
        PyList_SET_ITEM(entries, i, t);
    }
    return entries;
}

static PyObject *
emit_tags(const Tags *t)
{
    PyObject *sets = PyList_New(t->n_sets);
    if (!sets) {
        return NULL;
    }
    for (int64_t s = 0; s < t->n_sets; s++) {
        PyObject *entries = emit_set(TAGS_SET(t, s), t->len[s]);
        if (!entries) {
            Py_DECREF(sets);
            return NULL;
        }
        PyList_SET_ITEM(sets, s, entries);
    }
    return sets;
}

static int
cmp_dbl(const void *a, const void *b)
{
    double x = *(const double *)a, y = *(const double *)b;
    return (x > y) - (x < y);
}

static PyObject *
emit_heap_sorted(const DHeap *h)
{
    double *copy = NULL;
    if (h->n) {
        copy = (double *)malloc((size_t)h->n * sizeof(double));
        if (!copy) {
            return PyErr_NoMemory();
        }
        memcpy(copy, h->a, (size_t)h->n * sizeof(double));
        qsort(copy, (size_t)h->n, sizeof(double), cmp_dbl);
    }
    PyObject *list = PyList_New(h->n);
    if (!list) {
        free(copy);
        return NULL;
    }
    for (Py_ssize_t i = 0; i < h->n; i++) {
        PyObject *o = PyFloat_FromDouble(copy[i]);
        if (!o) {
            free(copy);
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, o);
    }
    free(copy);
    return list;
}

/* Map payload emitters: kind 0 -> keys only, 1 -> (key, a), 2 ->
 * (key, b as float). */
static PyObject *
emit_map(const Map *m, int kind)
{
    PyObject *list = PyList_New((Py_ssize_t)m->n);
    if (!list) {
        return NULL;
    }
    Py_ssize_t at = 0;
    for (size_t i = 0; i < m->cap; i++) {
        const MapSlot *slot = &m->slots[i];
        if (slot->key == MAP_EMPTY) {
            continue;
        }
        PyObject *o;
        if (kind == 0) {
            o = PyLong_FromLongLong(slot->key);
        }
        else if (kind == 1) {
            o = Py_BuildValue("(LL)", (long long)slot->key,
                              (long long)slot->a);
        }
        else {
            o = Py_BuildValue("(Ld)", (long long)slot->key, slot->b);
        }
        if (!o) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, at++, o);
    }
    return list;
}

static PyObject *
emit_intervals(const Map *m, const IvPool *p)
{
    PyObject *list = PyList_New((Py_ssize_t)m->n);
    if (!list) {
        return NULL;
    }
    Py_ssize_t at = 0;
    for (size_t i = 0; i < m->cap; i++) {
        const MapSlot *slot = &m->slots[i];
        if (slot->key == MAP_EMPTY) {
            continue;
        }
        Py_ssize_t idx = (Py_ssize_t)slot->a;
        int32_t cnt = p->cnt[idx];
        PyObject *vals = PyList_New(cnt);
        if (!vals) {
            Py_DECREF(list);
            return NULL;
        }
        for (int32_t j = 0; j < cnt; j++) {
            int64_t v =
                p->vals[idx * p->horizon + (p->head[idx] + j) % p->horizon];
            PyObject *o = PyLong_FromLongLong(v);
            if (!o) {
                Py_DECREF(vals);
                Py_DECREF(list);
                return NULL;
            }
            PyList_SET_ITEM(vals, j, o);
        }
        PyObject *pair = Py_BuildValue("(LN)", (long long)slot->key, vals);
        if (!pair) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, at++, pair);
    }
    return list;
}

static PyObject *
emit_win_pending(const WRing *r)
{
    PyObject *list = PyList_New(r->n);
    if (!list) {
        return NULL;
    }
    for (Py_ssize_t i = 0; i < r->n; i++) {
        const WinEntry *e = &r->a[(r->head + i) % (r->cap ? r->cap : 1)];
        PyObject *t = Py_BuildValue("(Ld)", (long long)e->index, e->frontier);
        if (!t) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, t);
    }
    return list;
}

static PyObject *
emit_int_array(const int64_t *a, Py_ssize_t n)
{
    PyObject *list = PyList_New(n);
    if (!list) {
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *o = PyLong_FromLongLong(a[i]);
        if (!o) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, o);
    }
    return list;
}

static PyObject *
emit_dbl_array(const double *a, Py_ssize_t n)
{
    PyObject *list = PyList_New(n);
    if (!list) {
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *o = PyFloat_FromDouble(a[i]);
        if (!o) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, o);
    }
    return list;
}

/* Sparse ATD (SBAR): only the leader sets exist in Python. */
static PyObject *
emit_leader_tags(const Tags *t, const uint8_t *leaders)
{
    PyObject *list = PyList_New(0);
    if (!list) {
        return NULL;
    }
    for (int64_t s = 0; s < t->n_sets; s++) {
        if (!leaders[s]) {
            continue;
        }
        PyObject *entries = emit_set(TAGS_SET(t, s), t->len[s]);
        if (!entries) {
            Py_DECREF(list);
            return NULL;
        }
        PyObject *pair = Py_BuildValue("(LN)", (long long)s, entries);
        if (!pair || PyList_Append(list, pair) < 0) {
            Py_XDECREF(pair);
            Py_DECREF(list);
            return NULL;
        }
        Py_DECREF(pair);
    }
    return list;
}

/* Tree-PLRU bits of every set whose Python tree would exist. */
static PyObject *
emit_plru(const Sim *s)
{
    PyObject *list = PyList_New(0);
    if (!list || !s->plru_bits) {
        return list;
    }
    int64_t width = s->l2.assoc - 1;
    for (int64_t set = 0; set < s->l2.n_sets; set++) {
        if (!s->plru_live[set]) {
            continue;
        }
        PyObject *bits = PyList_New(width);
        if (!bits) {
            Py_DECREF(list);
            return NULL;
        }
        for (int64_t i = 0; i < width; i++) {
            PyList_SET_ITEM(bits, i,
                            PyLong_FromLong(s->plru_bits[set * width + i]));
        }
        PyObject *pair = Py_BuildValue("(LN)", (long long)set, bits);
        if (!pair || PyList_Append(list, pair) < 0) {
            Py_XDECREF(pair);
            Py_DECREF(list);
            return NULL;
        }
        Py_DECREF(pair);
    }
    return list;
}

static PyObject *
emit_slot_fills(const Sim *s)
{
    PyObject *list = PyList_New(s->n_slots);
    if (!list) {
        return NULL;
    }
    for (Py_ssize_t i = 0; i < s->n_slots; i++) {
        PyObject *o = PyLong_FromLongLong(s->slots[i].fills);
        if (!o) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, o);
    }
    return list;
}

static void
sim_free(Sim *s)
{
    free(s->wp.a);
    free(s->sb.a);
    tags_free(&s->l1d);
    tags_free(&s->l1i);
    tags_free(&s->l2);
    tags_free(&s->atd_lru);
    tags_free(&s->atd_lin);
    map_free(&s->l2_seen);
    free(s->md.a);
    free(s->occ.a);
    map_free(&s->m_in_flight);
    free(s->mif.a);
    free(s->bank_free);
    map_free(&s->delta_last);
    map_free(&s->ehc_last);
    map_free(&s->ehc_intervals);
    ivpool_free(&s->ehc_pool);
    map_free(&s->awrp_counts);
    free(s->psel_val);
    free(s->psel_incs);
    free(s->psel_decs);
    free(s->slots);
    free(s->plru_bits);
    free(s->plru_live);
    free(s->cand_slot);
    free(s->t_scores);
    free(s->t_accesses);
    free(s->leaders);
}

/* ---------------------------------------------------------------- */
/* End state: the finished machine, emitted on demand                */
/* ---------------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    Sim *sim;
} EndState;

static void
endstate_dealloc(EndState *self)
{
    if (self->sim) {
        sim_free(self->sim);
        free(self->sim);
    }
    PyObject_Free(self);
}

/* The containers replay() leaves out of its counters dict.  Sparse
 * ATDs (SBAR) come back as (set index, ways) pairs of leader sets. */
static PyObject *
endstate_emit(EndState *self, PyObject *Py_UNUSED(ignored))
{
    const Sim *s = self->sim;
    PyObject *out = PyDict_New();
    if (!out) {
        return NULL;
    }
    if (out_obj(out, "l1d_sets", emit_tags(&s->l1d)) < 0 ||
        out_obj(out, "l1i_sets", emit_tags(&s->l1i)) < 0 ||
        out_obj(out, "l2_sets", emit_tags(&s->l2)) < 0 ||
        out_obj(out, "l2_seen", emit_map(&s->l2_seen, 0)) < 0 ||
        out_obj(out, "delta_last", emit_map(&s->delta_last, 2)) < 0 ||
        out_obj(out, "ehc_last", emit_map(&s->ehc_last, 1)) < 0 ||
        out_obj(out, "ehc_intervals",
                emit_intervals(&s->ehc_intervals, &s->ehc_pool)) < 0 ||
        out_obj(out, "awrp_counts", emit_map(&s->awrp_counts, 1)) < 0 ||
        out_obj(out, "plru_bits", emit_plru(s)) < 0 ||
        (s->controller_kind == CTRL_SBAR &&
         out_obj(out, "atd_sets",
                 emit_leader_tags(&s->atd_lru, s->leaders)) < 0) ||
        (s->controller_kind == CTRL_CBS &&
         (out_obj(out, "atd_sets", emit_tags(&s->atd_lru)) < 0 ||
          out_obj(out, "atd2_sets", emit_tags(&s->atd_lin)) < 0))) {
        Py_DECREF(out);
        return NULL;
    }
    return out;
}

static PyMethodDef endstate_methods[] = {
    {"emit", (PyCFunction)endstate_emit, METH_NOARGS,
     "The tag sets, seen set, policy side tables and ATDs, as lists."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject EndStateType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._native.replaykernel.EndState",
    .tp_basicsize = sizeof(EndState),
    .tp_dealloc = (destructor)endstate_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "The machine a native replay finished with.",
    .tp_methods = endstate_methods,
};

/* ---------------------------------------------------------------- */
/* Entry point                                                       */
/* ---------------------------------------------------------------- */

static PyObject *
replay(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *params;
    if (!PyArg_ParseTuple(args, "O!", &PyDict_Type, &params)) {
        return NULL;
    }

    /* heap-allocated: on success the EndState takes ownership */
    Sim *s = (Sim *)calloc(1, sizeof(Sim));
    if (!s) {
        return PyErr_NoMemory();
    }

    P p = {params, 0};
    Py_buffer addr_buf = {0}, kind_buf = {0}, gap_buf = {0};
    PyObject *out = NULL;
    int bufs_ok = 0;

    /* --- trace buffers --- */
    PyObject *addrs_o = p_item(&p, "addresses");
    PyObject *kinds_o = p_item(&p, "kinds");
    PyObject *gaps_o = p_item(&p, "gaps");
    if (p.err) {
        goto fail;
    }
    if (PyObject_GetBuffer(addrs_o, &addr_buf, PyBUF_CONTIG_RO) < 0 ||
        PyObject_GetBuffer(kinds_o, &kind_buf, PyBUF_CONTIG_RO) < 0 ||
        PyObject_GetBuffer(gaps_o, &gap_buf, PyBUF_CONTIG_RO) < 0) {
        goto fail;
    }
    bufs_ok = 1;
    s->n = addr_buf.len / (Py_ssize_t)sizeof(int64_t);
    if (gap_buf.len != addr_buf.len || kind_buf.len != s->n) {
        PyErr_SetString(PyExc_ValueError,
                        "replay kernel: trace column length mismatch");
        goto fail;
    }
    s->addrs = (const int64_t *)addr_buf.buf;
    s->kinds = (const int8_t *)kind_buf.buf;
    s->gaps = (const int64_t *)gap_buf.buf;
    s->block_bits = p_int(&p, "block_bits");
    s->ifetch_kind = p_int(&p, "ifetch_kind");
    s->store_kind = p_int(&p, "store_kind");

    /* --- window --- */
    s->win_width = p_int(&p, "win_width");
    s->win_size = p_int(&p, "win_size");
    s->win_index = p_int(&p, "win_index");
    s->win_time = p_dbl(&p, "win_time");
    s->retire_cummax = p_dbl(&p, "retire_cummax");
    s->final_completion = p_dbl(&p, "final_completion");
    s->stall_cycles = p_dbl(&p, "stall_cycles");
    s->stall_events = p_int(&p, "stall_events");
    s->long_stalls = p_int(&p, "long_stalls");
    s->long_stall_threshold = p_dbl(&p, "long_stall_threshold");

    /* --- store buffer --- */
    s->sb_capacity = p_int(&p, "sb_capacity");
    s->sb_full_stalls = p_int(&p, "sb_full_stalls");

    /* --- caches --- */
    int64_t l1d_sets = p_int(&p, "l1d_n_sets");
    int64_t l1d_assoc = p_int(&p, "l1d_assoc");
    int64_t l1i_sets = p_int(&p, "l1i_n_sets");
    int64_t l1i_assoc = p_int(&p, "l1i_assoc");
    int64_t l2_sets = p_int(&p, "l2_n_sets");
    int64_t l2_assoc = p_int(&p, "l2_assoc");
    s->l1d_latency = p_dbl(&p, "l1d_latency");
    s->l1i_latency = p_dbl(&p, "l1i_latency");
    s->l2_latency = p_dbl(&p, "l2_latency");
    s->l1d_seq = p_int(&p, "l1d_seq");
    s->l1d_accesses = p_int(&p, "l1d_accesses");
    s->l1d_hits = p_int(&p, "l1d_hits");
    s->l1d_misses = p_int(&p, "l1d_misses");
    s->l1d_writebacks = p_int(&p, "l1d_writebacks");
    s->l1i_seq = p_int(&p, "l1i_seq");
    s->l1i_accesses = p_int(&p, "l1i_accesses");
    s->l1i_hits = p_int(&p, "l1i_hits");
    s->l1i_misses = p_int(&p, "l1i_misses");
    s->l1i_writebacks = p_int(&p, "l1i_writebacks");
    s->l2_seq = p_int(&p, "l2_seq");
    s->l2_accesses = p_int(&p, "l2_accesses");
    s->l2_hits = p_int(&p, "l2_hits");
    s->l2_misses = p_int(&p, "l2_misses");
    s->l2_writebacks = p_int(&p, "l2_writebacks");
    s->l2_compulsory = p_int(&p, "l2_compulsory");
    s->track_seen = (int)p_int(&p, "track_seen");
    s->demand_ctr = p_int(&p, "demand_ctr");
    s->compulsory_ctr = p_int(&p, "compulsory_ctr");

    /* --- mshr --- */
    s->m_entries = p_int(&p, "m_entries");
    s->n_adders = p_int(&p, "n_adders");
    s->m_now = p_dbl(&p, "m_now");
    s->m_acc = p_dbl(&p, "m_acc");
    s->m_allocations = p_int(&p, "m_allocations");
    s->m_merges = p_int(&p, "m_merges");
    s->m_full_stalls = p_int(&p, "m_full_stalls");
    s->m_peak = p_int(&p, "m_peak");

    /* --- memory --- */
    s->memory_max = p_int(&p, "memory_max");
    s->mem_requests = p_int(&p, "mem_requests");
    s->mem_writebacks = p_int(&p, "mem_writebacks");
    s->mem_queueing = p_int(&p, "mem_queueing");
    s->mem_peak = p_int(&p, "mem_peak");
    s->bus_occupancy = p_dbl(&p, "bus_occupancy");
    s->bus_transfer_delay = p_dbl(&p, "bus_transfer_delay");
    s->bus_free = p_dbl(&p, "bus_free");
    s->bus_contended = p_int(&p, "bus_contended");
    s->bus_transfers = p_int(&p, "bus_transfers");
    s->bank_latency = p_dbl(&p, "bank_latency");
    s->bank_conflicts = p_int(&p, "bank_conflicts");
    s->bank_accesses = p_int(&p, "bank_accesses");

    /* --- cost + delta --- */
    s->qstep = p_dbl(&p, "qstep");
    s->max_q = p_int(&p, "max_q");
    s->dist_total = p_int(&p, "dist_total");
    s->dist_cost_sum = p_dbl(&p, "dist_cost_sum");
    s->track_delta = (int)p_int(&p, "track_delta");
    s->delta_count = p_int(&p, "delta_count");
    s->delta_sum = p_dbl(&p, "delta_sum");
    s->delta_below = p_int(&p, "delta_below");
    s->delta_mid = p_int(&p, "delta_mid");
    s->delta_high = p_int(&p, "delta_high");

    /* --- policy --- */
    s->lin_lam = p_int(&p, "lin_lam");
    s->ehc_horizon = p_int(&p, "ehc_horizon");
    s->ehc_pending = p_int(&p, "ehc_pending");
    s->never = p_int(&p, "ehc_never");
    s->awrp_weight = p_dbl(&p, "awrp_weight");
    s->awrp_fills = p_int(&p, "awrp_fills");
    s->plru_threshold = p_int(&p, "plru_threshold");
    s->plru_rejects = p_int(&p, "plru_rejects");

    /* --- controller --- */
    s->controller_kind = p_int(&p, "controller_kind");
    s->atd_assoc = p_int(&p, "atd_assoc");
    s->atd_seq = p_int(&p, "atd_seq");
    s->atd_accesses = p_int(&p, "atd_accesses");
    s->atd_hits = p_int(&p, "atd_hits");
    s->atd_misses = p_int(&p, "atd_misses");
    s->atd2_seq = p_int(&p, "atd2_seq");
    s->atd2_accesses = p_int(&p, "atd2_accesses");
    s->atd2_hits = p_int(&p, "atd2_hits");
    s->atd2_misses = p_int(&p, "atd2_misses");
    s->cbs_local = (int)p_int(&p, "cbs_local");
    s->psel_max = p_int(&p, "psel_max");
    s->psel_msb = p_int(&p, "psel_msb");
    s->deferred = p_int(&p, "deferred");
    s->follower_lin = p_int(&p, "follower_lin");
    s->follower_lru = p_int(&p, "follower_lru");
    s->t_decay = p_dbl(&p, "t_decay");

    if (p.err) {
        goto fail;
    }

    /* --- list / bytes params --- */
    {
        Py_ssize_t nb = 0;
        s->bank_free = p_dbl_list(&p, "bank_free", &nb);
        if (p.err) {
            goto fail;
        }
        s->n_banks = (int64_t)nb;
    }
    {
        Py_ssize_t nd = 0;
        int64_t *dist = p_int_list(&p, "dist_counts", &nd);
        if (p.err) {
            goto fail;
        }
        if (nd > 64) {
            free(dist);
            PyErr_SetString(PyExc_ValueError,
                            "replay kernel: dist_counts too long");
            goto fail;
        }
        memcpy(s->dist_counts, dist, (size_t)nd * sizeof(int64_t));
        free(dist);
    }
    {
        Py_ssize_t np_ = 0, ni = 0, ndc = 0;
        s->psel_val = p_int_list(&p, "psel_values", &np_);
        s->psel_incs = p_int_list(&p, "psel_incs", &ni);
        s->psel_decs = p_int_list(&p, "psel_decs", &ndc);
        if (p.err) {
            goto fail;
        }
        if (ni != np_ || ndc != np_) {
            PyErr_SetString(PyExc_ValueError,
                            "replay kernel: psel array length mismatch");
            goto fail;
        }
        s->n_psels = np_;
    }
    {
        Py_ssize_t nk = 0, nl = 0, npd = 0, nf = 0;
        int64_t *kinds = p_int_list(&p, "slot_kinds", &nk);
        int64_t *lams = p_int_list(&p, "slot_lams", &nl);
        int64_t *periods = p_int_list(&p, "slot_periods", &npd);
        int64_t *fills = p_int_list(&p, "slot_fills", &nf);
        if (!p.err && (nk < (s->controller_kind == CTRL_DIP ? 2 : 1) ||
                       nl != nk || npd != nk || nf != nk)) {
            PyErr_SetString(PyExc_ValueError,
                            "replay kernel: policy slot length mismatch");
            p.err = 1;
        }
        if (!p.err) {
            s->slots = (PolSlot *)calloc((size_t)nk, sizeof(PolSlot));
            if (!s->slots) {
                PyErr_NoMemory();
                p.err = 1;
            }
        }
        if (!p.err) {
            s->n_slots = nk;
            for (Py_ssize_t i = 0; i < nk; i++) {
                s->slots[i].kind = kinds[i];
                s->slots[i].lam = lams[i];
                s->slots[i].period = periods[i] > 0 ? periods[i] : 1;
                s->slots[i].fills = fills[i];
            }
        }
        free(kinds);
        free(lams);
        free(periods);
        free(fills);
        if (p.err) {
            goto fail;
        }
    }
    {
        Py_ssize_t nc = 0, ns = 0, na = 0;
        s->cand_slot = p_int_list(&p, "cand_slots", &nc);
        s->t_scores = p_dbl_list(&p, "t_scores", &ns);
        s->t_accesses = p_dbl_list(&p, "t_accesses", &na);
        if (p.err) {
            goto fail;
        }
        if (ns != nc || na != nc) {
            PyErr_SetString(PyExc_ValueError,
                            "replay kernel: tournament array length mismatch");
            goto fail;
        }
        for (Py_ssize_t i = 0; i < nc; i++) {
            if (s->cand_slot[i] < 0 || s->cand_slot[i] >= s->n_slots) {
                PyErr_SetString(PyExc_ValueError,
                                "replay kernel: candidate slot out of range");
                goto fail;
            }
        }
        s->n_cands = nc;
        if (s->controller_kind == CTRL_TOURNAMENT && nc < 1) {
            PyErr_SetString(PyExc_ValueError,
                            "replay kernel: tournament needs candidates");
            goto fail;
        }
    }
    {
        PyObject *lead = p_item(&p, "leaders");
        if (p.err) {
            goto fail;
        }
        if (lead == Py_None) {
            s->leaders = NULL;
        }
        else {
            if (!PyBytes_Check(lead)) {
                PyErr_SetString(PyExc_TypeError,
                                "replay kernel: leaders must be bytes");
                goto fail;
            }
            if (PyBytes_GET_SIZE(lead) != (Py_ssize_t)l2_sets) {
                PyErr_SetString(PyExc_ValueError,
                                "replay kernel: leaders length mismatch");
                goto fail;
            }
            /* every leader byte must name a slot/candidate that exists */
            const uint8_t *bytes = (const uint8_t *)PyBytes_AS_STRING(lead);
            int64_t max_tag = s->controller_kind == CTRL_TOURNAMENT
                                  ? (int64_t)s->n_cands
                                  : s->controller_kind == CTRL_DIP ? 2 : 1;
            for (Py_ssize_t i = 0; i < (Py_ssize_t)l2_sets; i++) {
                if (bytes[i] > max_tag) {
                    PyErr_SetString(PyExc_ValueError,
                                    "replay kernel: leader tag out of range");
                    goto fail;
                }
            }
            s->leaders = (uint8_t *)malloc((size_t)l2_sets + 1);
            if (!s->leaders) {
                PyErr_NoMemory();
                goto fail;
            }
            memcpy(s->leaders, bytes, (size_t)l2_sets);
        }
    }

    /* --- containers --- */
    if (tags_init(&s->l1d, l1d_sets, l1d_assoc) < 0 ||
        tags_init(&s->l1i, l1i_sets, l1i_assoc) < 0 ||
        tags_init(&s->l2, l2_sets, l2_assoc) < 0 ||
        map_init(&s->l2_seen, 1024) < 0 ||
        map_init(&s->m_in_flight, 64) < 0 ||
        map_init(&s->delta_last, 1024) < 0 ||
        map_init(&s->ehc_last, 1024) < 0 ||
        map_init(&s->ehc_intervals, 1024) < 0 ||
        map_init(&s->awrp_counts, 1024) < 0) {
        PyErr_NoMemory();
        goto fail;
    }
    ivpool_init(&s->ehc_pool, s->ehc_horizon);
    if (s->controller_kind == CTRL_SBAR || s->controller_kind == CTRL_CBS) {
        if (tags_init(&s->atd_lru, l2_sets, s->atd_assoc) < 0) {
            PyErr_NoMemory();
            goto fail;
        }
    }
    if (s->controller_kind == CTRL_CBS) {
        if (tags_init(&s->atd_lin, l2_sets, s->atd_assoc) < 0) {
            PyErr_NoMemory();
            goto fail;
        }
    }
    if ((s->controller_kind == CTRL_SBAR || s->controller_kind == CTRL_DIP ||
         s->controller_kind == CTRL_TOURNAMENT) &&
        !s->leaders) {
        PyErr_SetString(PyExc_ValueError,
                        "replay kernel: controller requires leaders bitmap");
        goto fail;
    }
    {
        /* tree-PLRU state, for whichever slot runs it */
        int plru = 0;
        for (Py_ssize_t i = 0; i < s->n_slots; i++) {
            plru |= s->slots[i].kind == POL_PLRU ||
                    s->slots[i].kind == POL_COST_PLRU;
        }
        if (plru) {
            if (l2_assoc < 1 || (l2_assoc & (l2_assoc - 1))) {
                PyErr_SetString(PyExc_ValueError,
                                "replay kernel: tree-PLRU needs a "
                                "power-of-two associativity");
                goto fail;
            }
            s->plru_bits = (uint8_t *)calloc(
                (size_t)(l2_sets * (l2_assoc - 1) + 1), 1);
            s->plru_live = (uint8_t *)calloc((size_t)l2_sets, 1);
            if (!s->plru_bits || !s->plru_live) {
                PyErr_NoMemory();
                goto fail;
            }
        }
    }

    /* --- run --- */
    Py_BEGIN_ALLOW_THREADS;
    run_loop(s);
    Py_END_ALLOW_THREADS;

    if (s->oom) {
        PyErr_NoMemory();
        goto fail;
    }

    /* --- emit --- */
    out = PyDict_New();
    if (!out) {
        goto fail;
    }
    if (/* window */
        out_int(out, "win_index", s->win_index) < 0 ||
        out_dbl(out, "win_time", s->win_time) < 0 ||
        out_dbl(out, "retire_cummax", s->retire_cummax) < 0 ||
        out_dbl(out, "final_completion", s->final_completion) < 0 ||
        out_dbl(out, "stall_cycles", s->stall_cycles) < 0 ||
        out_int(out, "stall_events", s->stall_events) < 0 ||
        out_int(out, "long_stalls", s->long_stalls) < 0 ||
        out_obj(out, "win_pending", emit_win_pending(&s->wp)) < 0 ||
        /* store buffer */
        out_int(out, "sb_full_stalls", s->sb_full_stalls) < 0 ||
        out_obj(out, "sb_completions", emit_heap_sorted(&s->sb)) < 0 ||
        /* caches */
        out_int(out, "l1d_seq", s->l1d_seq) < 0 ||
        out_int(out, "l1d_accesses", s->l1d_accesses) < 0 ||
        out_int(out, "l1d_hits", s->l1d_hits) < 0 ||
        out_int(out, "l1d_misses", s->l1d_misses) < 0 ||
        out_int(out, "l1d_writebacks", s->l1d_writebacks) < 0 ||
        out_int(out, "l1i_seq", s->l1i_seq) < 0 ||
        out_int(out, "l1i_accesses", s->l1i_accesses) < 0 ||
        out_int(out, "l1i_hits", s->l1i_hits) < 0 ||
        out_int(out, "l1i_misses", s->l1i_misses) < 0 ||
        out_int(out, "l1i_writebacks", s->l1i_writebacks) < 0 ||
        out_int(out, "l2_seq", s->l2_seq) < 0 ||
        out_int(out, "l2_accesses", s->l2_accesses) < 0 ||
        out_int(out, "l2_hits", s->l2_hits) < 0 ||
        out_int(out, "l2_misses", s->l2_misses) < 0 ||
        out_int(out, "l2_writebacks", s->l2_writebacks) < 0 ||
        out_int(out, "l2_compulsory", s->l2_compulsory) < 0 ||
        out_int(out, "demand_ctr", s->demand_ctr) < 0 ||
        out_int(out, "compulsory_ctr", s->compulsory_ctr) < 0 ||
        /* mshr */
        out_dbl(out, "m_now", s->m_now) < 0 ||
        out_dbl(out, "m_acc", s->m_acc) < 0 ||
        out_int(out, "m_live", s->m_live) < 0 ||
        out_int(out, "m_in_flight_n", (int64_t)s->m_in_flight.n) < 0 ||
        out_int(out, "m_allocations", s->m_allocations) < 0 ||
        out_int(out, "m_merges", s->m_merges) < 0 ||
        out_int(out, "m_full_stalls", s->m_full_stalls) < 0 ||
        out_int(out, "m_peak", s->m_peak) < 0 ||
        /* memory */
        out_int(out, "mem_requests", s->mem_requests) < 0 ||
        out_int(out, "mem_writebacks", s->mem_writebacks) < 0 ||
        out_int(out, "mem_queueing", s->mem_queueing) < 0 ||
        out_int(out, "mem_peak", s->mem_peak) < 0 ||
        out_obj(out, "mem_in_flight", emit_heap_sorted(&s->mif)) < 0 ||
        out_dbl(out, "bus_free", s->bus_free) < 0 ||
        out_int(out, "bus_contended", s->bus_contended) < 0 ||
        out_int(out, "bus_transfers", s->bus_transfers) < 0 ||
        out_obj(out, "bank_free",
                emit_dbl_array(s->bank_free, (Py_ssize_t)s->n_banks)) < 0 ||
        out_int(out, "bank_conflicts", s->bank_conflicts) < 0 ||
        out_int(out, "bank_accesses", s->bank_accesses) < 0 ||
        /* cost + delta */
        out_obj(out, "dist_counts",
                emit_int_array(s->dist_counts, (Py_ssize_t)(s->max_q + 1)))
            < 0 ||
        out_int(out, "dist_total", s->dist_total) < 0 ||
        out_dbl(out, "dist_cost_sum", s->dist_cost_sum) < 0 ||
        out_int(out, "delta_count", s->delta_count) < 0 ||
        out_dbl(out, "delta_sum", s->delta_sum) < 0 ||
        out_int(out, "delta_below", s->delta_below) < 0 ||
        out_int(out, "delta_mid", s->delta_mid) < 0 ||
        out_int(out, "delta_high", s->delta_high) < 0 ||
        /* policy */
        out_int(out, "ehc_pending", s->ehc_pending) < 0 ||
        out_int(out, "awrp_fills", s->awrp_fills) < 0 ||
        out_obj(out, "slot_fills", emit_slot_fills(s)) < 0 ||
        out_obj(out, "t_scores", emit_dbl_array(s->t_scores, s->n_cands))
            < 0 ||
        out_obj(out, "t_accesses",
                emit_dbl_array(s->t_accesses, s->n_cands)) < 0 ||
        /* controller */
        out_int(out, "atd_seq", s->atd_seq) < 0 ||
        out_int(out, "atd_accesses", s->atd_accesses) < 0 ||
        out_int(out, "atd_hits", s->atd_hits) < 0 ||
        out_int(out, "atd_misses", s->atd_misses) < 0 ||
        out_int(out, "atd2_seq", s->atd2_seq) < 0 ||
        out_int(out, "atd2_accesses", s->atd2_accesses) < 0 ||
        out_int(out, "atd2_hits", s->atd2_hits) < 0 ||
        out_int(out, "atd2_misses", s->atd2_misses) < 0 ||
        out_obj(out, "psel_values",
                emit_int_array(s->psel_val, s->n_psels)) < 0 ||
        out_obj(out, "psel_incs",
                emit_int_array(s->psel_incs, s->n_psels)) < 0 ||
        out_obj(out, "psel_decs",
                emit_int_array(s->psel_decs, s->n_psels)) < 0 ||
        out_int(out, "deferred", s->deferred) < 0 ||
        out_int(out, "follower_lin", s->follower_lin) < 0 ||
        out_int(out, "follower_lru", s->follower_lru) < 0) {
        goto fail;
    }

    EndState *end = PyObject_New(EndState, &EndStateType);
    if (!end) {
        goto fail;
    }
    /* The EndState owns the machine from here on and keeps nothing the
     * call lent it: the leaders bitmap is already a copy. */
    s->addrs = NULL;
    s->kinds = NULL;
    s->gaps = NULL;
    end->sim = s;
    PyBuffer_Release(&addr_buf);
    PyBuffer_Release(&kind_buf);
    PyBuffer_Release(&gap_buf);
    PyObject *result = PyTuple_Pack(2, out, (PyObject *)end);
    Py_DECREF(out);
    Py_DECREF(end);
    return result;

fail:
    Py_XDECREF(out);
    sim_free(s);
    free(s);
    if (bufs_ok) {
        PyBuffer_Release(&addr_buf);
        PyBuffer_Release(&kind_buf);
        PyBuffer_Release(&gap_buf);
    }
    else {
        if (addr_buf.obj) {
            PyBuffer_Release(&addr_buf);
        }
        if (kind_buf.obj) {
            PyBuffer_Release(&kind_buf);
        }
        if (gap_buf.obj) {
            PyBuffer_Release(&gap_buf);
        }
    }
    return NULL;
}

static PyMethodDef replaykernel_methods[] = {
    {"replay", replay, METH_VARARGS,
     "Run the fused replay loop natively over packed trace columns.\n"
     "Takes a flat params dict, returns (counters dict, EndState).\n"
     "Bit-identical to the pure-python kernels by construction."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef replaykernel_module = {
    PyModuleDef_HEAD_INIT,
    "repro._native.replaykernel",
    "Native (C) replay kernel: the top rung of the kernel ladder.",
    -1,
    replaykernel_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit_replaykernel(void)
{
    if (PyType_Ready(&EndStateType) < 0) {
        return NULL;
    }
    return PyModule_Create(&replaykernel_module);
}
