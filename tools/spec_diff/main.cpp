// spec_diff: semantic diff of two scenario / campaign INI files.
//
// Usage:
//   spec_diff <a.ini> <b.ini>
//
// Both files are parsed with the real scenario/campaign parser and
// re-serialized canonically, so comment, ordering and formatting noise
// never shows up — only differences in the compiled meaning do.
//
// Exit status: 0 semantically identical, 1 different, 2 error (missing
// file, parse failure, schema mismatch).
#include <cstdio>
#include <string>

#include "scenario/spec.hpp"
#include "spec_diff.hpp"

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: spec_diff <a.ini> <b.ini>\n");
    return 2;
  }
  const auto read = [](const char* path, std::string& text) {
    const auto error = densevlc::scenario::read_spec_text(path, text);
    if (error) {
      std::fprintf(stderr, "spec_diff: %s\n", error->to_string().c_str());
    }
    return !error;
  };
  std::string text_a;
  std::string text_b;
  if (!read(argv[1], text_a) || !read(argv[2], text_b)) return 2;

  using densevlc::specdiff::Canonical;
  const Canonical a = densevlc::specdiff::canonicalize(text_a);
  if (!a.ok) {
    std::fprintf(stderr, "spec_diff: %s does not parse:\n%s\n", argv[1],
                 a.error.c_str());
    return 2;
  }
  const Canonical b = densevlc::specdiff::canonicalize(text_b);
  if (!b.ok) {
    std::fprintf(stderr, "spec_diff: %s does not parse:\n%s\n", argv[2],
                 b.error.c_str());
    return 2;
  }
  if (a.is_campaign != b.is_campaign) {
    std::fprintf(stderr,
                 "spec_diff: %s is a %s but %s is a %s; nothing to compare\n",
                 argv[1], a.is_campaign ? "campaign" : "scenario", argv[2],
                 b.is_campaign ? "campaign" : "scenario");
    return 2;
  }

  const auto entries = densevlc::specdiff::diff_items(a.items, b.items);
  if (entries.empty()) {
    std::printf("spec_diff: identical (%zu canonical key(s))\n",
                a.items.size());
    return 0;
  }
  std::fputs(densevlc::specdiff::render_diff(entries).c_str(), stdout);
  std::printf("spec_diff: %zu difference(s)\n", entries.size());
  return 1;
}
