#pragma once
/// Text-shape utilities for socbuf_lint's rules.
///
/// Pattern rules (lint.cpp) need to see *code* without comment or
/// string-literal text — the linter's own sources spell every banned
/// token inside string literals — while the suppression scanner needs the
/// *comments* alone. split_views produces both as same-shape strings
/// (newlines survive, everything else is blanked out of the view it does
/// not belong to), so byte offsets and line numbers stay aligned across
/// views.

#include <string>
#include <vector>

namespace socbuf::lint {

struct Views {
    std::string code;      ///< comments and literal contents blanked
    std::string comments;  ///< everything that is not comment text blanked
};

/// Split one file's text into the two same-shape views. Handles //, block
/// comments, string/char literals (escapes included) and raw strings.
Views split_views(const std::string& text);

/// Split on '\n' keeping empty lines; a trailing newline does not add an
/// extra empty line beyond the one it terminates.
std::vector<std::string> split_lines(const std::string& text);

/// True when the line is empty or all-whitespace.
bool blank_line(const std::string& line);

/// Strip leading and trailing whitespace.
std::string trim(const std::string& text);

/// [A-Za-z0-9_] — the identifier alphabet.
bool ident_char(char c);

/// True when `text` begins with `prefix`.
bool starts_with(const std::string& text, const char* prefix);

}  // namespace socbuf::lint
