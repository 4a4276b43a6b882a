/* The byte loops of the recording codec (Recording in recording.ml):
   the v2 encode run, the v2 size count, the v2 decode run and the v3
   slab writer.  recording.ml keeps everything around them: headers,
   window refills, the mapping of a decode stop to its located error
   message, the slab pool and the v3 loaders.

   Why C: these loops are all integer arithmetic over untagged words
   and bytes.  In OCaml each step pays for tagging, and OCaml 5.1 can
   only write a Bigarray to a file after copying it into [Bytes].

   The three v2 kernels neither allocate nor raise (they are
   [@@noalloc] externals).  They compute exactly what OCaml's 63-bit
   [lsl]/[lsr]/[asr] code computes: a slab word is a native [intnat]
   holding a 63-bit OCaml int, and the zigzag varint's value is cut to
   63 bits before it is used. */

#define CAML_NAME_SPACE
#include <errno.h>
#include <stdint.h>
#include <string.h>
#include <unistd.h>

#include <caml/bigarray.h>
#include <caml/config.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

#ifndef ARCH_SIXTYFOUR
#error "the recording codec assumes 63-bit OCaml ints"
#endif

/* Recording.max_event_bytes and Recording.max_addr. */
#define MAX_EVENT_BYTES 10
#define MAX_ADDR (Max_long >> 3)
#define INT63_MASK ((uint64_t)-1 >> 1)

/* Fields of Recording.v2_writer and Recording.v2_cursor.  They hold
   OCaml ints, so they are stored without a write barrier. */
#define WRITER_AT 0
#define WRITER_PREV 1
#define WRITER_FILL 2
#define CURSOR_POS 0
#define CURSOR_PREV 1
#define CURSOR_FILL 2

/* The constructors of Recording.v2_stop, in declaration order. */
enum { BOUNDARY, BAD_KIND, BAD_VARINT, BAD_ADDRESS, CUT_SHORT };

/* An event's address: OCaml's [w lsr 3] on the 63-bit word, which
   never sees bit 63 of the native word. */
static inline uint64_t word_addr(intnat w)
{
  return ((uint64_t)w << 1) >> 4;
}

/* The zigzag code of the address delta; both addresses are below
   2^60, so the delta and its doubling fit. */
static inline uint64_t zigzag(uint64_t addr, uint64_t prev)
{
  int64_t delta = (int64_t)(addr - prev);
  return ((uint64_t)delta << 1) ^ (uint64_t)(delta >> 63);
}

/* Encode [slab.(at .. len-1)] into the window [buf] from [fill]
   while a whole event still fits, advancing the writer [w]. */
value repro_v2_encode_run(value w, value slab, value vlen, value vbuf)
{
  const intnat *src = (const intnat *)Caml_ba_data_val(slab);
  unsigned char *buf = Bytes_val(vbuf);
  intnat len = Long_val(vlen);
  intnat cap = (intnat)caml_string_length(vbuf) - MAX_EVENT_BYTES;
  intnat i = Long_val(Field(w, WRITER_AT));
  uint64_t prev = (uint64_t)Long_val(Field(w, WRITER_PREV));
  intnat fill = Long_val(Field(w, WRITER_FILL));
  for (; i < len && fill <= cap; i++) {
    uint64_t addr = word_addr(src[i]);
    uint64_t zz = zigzag(addr, prev);
    unsigned b0 = (unsigned)(((zz & 0xf) << 3) | ((uint64_t)src[i] & 7));
    uint64_t rest = zz >> 4;
    prev = addr;
    if (rest == 0) {
      buf[fill++] = (unsigned char)b0;
      continue;
    }
    buf[fill++] = (unsigned char)(b0 | 0x80);
    while (rest >= 0x80) {
      buf[fill++] = (unsigned char)((rest & 0x7f) | 0x80);
      rest >>= 7;
    }
    buf[fill++] = (unsigned char)rest;
  }
  Field(w, WRITER_AT) = Val_long(i);
  Field(w, WRITER_PREV) = Val_long((intnat)prev);
  Field(w, WRITER_FILL) = Val_long(fill);
  return Val_unit;
}

/* The bytes of a v2 event: the first byte carries 4 bits of the
   zigzag code, each further byte 7. */
static inline intnat event_bytes(uint64_t zz)
{
#if defined(__GNUC__)
  return 1 + (66 - __builtin_clzll(zz | 0xf)) / 7;
#else
  intnat n = 1;
  for (zz >>= 4; zz != 0; zz >>= 7) n++;
  return n;
#endif
}

/* The bytes [repro_v2_encode_run] would write for [slab.(0 .. len-1)]
   after an event at address [prev]. */
value repro_v2_count_run(value slab, value vlen, value vprev)
{
  const intnat *src = (const intnat *)Caml_ba_data_val(slab);
  intnat len = Long_val(vlen);
  uint64_t prev = (uint64_t)Long_val(vprev);
  intnat bytes = 0;
  for (intnat i = 0; i < len; i++) {
    uint64_t addr = word_addr(src[i]);
    bytes += event_bytes(zigzag(addr, prev));
    prev = addr;
  }
  return Val_long(bytes);
}

/* Decode events from window [buf] into [slab] while they start before
   [limit] and the slab holds fewer than [last], advancing the cursor
   [c]; return the v2_stop.  The caller keeps every event that starts
   before [limit] inside [buf.[0 .. avail]], and [buf.[avail]] is 0,
   which ends any varint: no read goes past it, and an event that
   reads it is cut short.  A cut-short event is reported as such even
   when its varint also overflows.  On an error the cursor rests on
   the bad event. */
value repro_v2_decode_run(value c, value vbuf, value slab, value vavail,
                          value vlimit, value vlast)
{
  const unsigned char *buf = Bytes_val(vbuf);
  intnat *dst = (intnat *)Caml_ba_data_val(slab);
  intnat avail = Long_val(vavail);
  intnat limit = Long_val(vlimit);
  intnat last = Long_val(vlast);
  intnat p = Long_val(Field(c, CURSOR_POS));
  int64_t prev = Long_val(Field(c, CURSOR_PREV));
  intnat n = Long_val(Field(c, CURSOR_FILL));
  int stop = BOUNDARY;
  while (p < limit && n < last) {
    unsigned b0 = buf[p];
    unsigned tag = b0 & 7;
    uint64_t zz = (b0 >> 3) & 0xf;
    intnat q = p + 1;
    if ((tag & 6) == 6) {
      stop = BAD_KIND;
      break;
    }
    if (b0 & 0x80) {
      unsigned shift = 4, b;
      do {
        b = buf[q++];
        if (shift > 62) {
          stop = BAD_VARINT;
          break;
        }
        zz |= (uint64_t)(b & 0x7f) << shift;
        shift += 7;
      } while (b & 0x80);
    }
    if (q > avail) {
      stop = CUT_SHORT;
      break;
    }
    if (stop != BOUNDARY) break;
    zz &= INT63_MASK;
    /* In [-2^62, 2^62) and [prev] is below 2^59: the sum cannot
       overflow, and every sum OCaml's 63-bit add would wrap lands
       above [MAX_ADDR] here. */
    int64_t addr = prev + ((int64_t)(zz >> 1) ^ -(int64_t)(zz & 1));
    if (addr < 0 || addr > MAX_ADDR) {
      stop = BAD_ADDRESS;
      break;
    }
    dst[n++] = (intnat)(((uint64_t)addr << 3) | tag);
    prev = addr;
    p = q;
  }
  Field(c, CURSOR_POS) = Val_long(p);
  Field(c, CURSOR_PREV) = Val_long(prev);
  Field(c, CURSOR_FILL) = Val_long(n);
  return Val_int(stop);
}

value repro_v2_decode_run_byte(value *argv, int argn)
{
  (void)argn;
  return repro_v2_decode_run(argv[0], argv[1], argv[2], argv[3], argv[4],
                             argv[5]);
}

/* write(2) all of [p .. p+n-1] to [fd]; 0, or the errno of the
   failed call. */
static int write_all(int fd, const char *p, size_t n)
{
  while (n > 0) {
    ssize_t r = write(fd, p, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    p += r;
    n -= (size_t)r;
  }
  return 0;
}

/* Write [slab.(0 .. len-1)] to [fd] as v3 payload words, 8 LE bytes
   each, with the runtime lock released as [Unix.write] does: the
   Bigarray's data is off-heap and never moves.  On a little-endian
   host the words go out straight from the slab, so a mapped v3 word
   keeps its bit 63; a big-endian host byte-swaps through a bounce
   buffer.  Raises [Unix_error] as [Unix.write] does. */
value repro_v3_write_words(value vfd, value slab, value vlen)
{
  CAMLparam3(vfd, slab, vlen);
  int fd = Int_val(vfd);
  const intnat *src = (const intnat *)Caml_ba_data_val(slab);
  size_t len = (size_t)Long_val(vlen);
  int err;
  caml_enter_blocking_section();
#ifdef ARCH_BIG_ENDIAN
  {
    uint64_t bounce[8192];
    err = 0;
    while (err == 0 && len > 0) {
      size_t k = len < 8192 ? len : 8192;
      for (size_t i = 0; i < k; i++)
        bounce[i] = __builtin_bswap64((uint64_t)src[i]);
      err = write_all(fd, (const char *)bounce, 8 * k);
      src += k;
      len -= k;
    }
  }
#else
  err = write_all(fd, (const char *)src, 8 * len);
#endif
  caml_leave_blocking_section();
  if (err != 0) caml_unix_error(err, "write", Nothing);
  CAMLreturn(Val_unit);
}
