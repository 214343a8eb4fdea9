# Fails when a test list that gtest_discover_tests wrote (the names
# `ctest -N` prints) holds a parameterized name printed as raw bytes,
# "N-byte object <..>": a parameter type without a PrintTo overload, whose
# names change from build to build with the struct's padding.  It reads the
# lists rather than running `ctest -N`, which would rewrite the running
# ctest's Testing/Temporary/LastTest.log.
#
# Usage: cmake -DTESTS_DIR=<binary dir of tests/> -P check_test_names.cmake
file(GLOB lists "${TESTS_DIR}/*_tests.cmake")
if(NOT lists)
  message(FATAL_ERROR "no gtest test lists under ${TESTS_DIR}")
endif()
set(found 0)
foreach(list IN LISTS lists)
  file(STRINGS "${list}" hits REGEX "^add_test\\(.*byte object <")
  foreach(hit IN LISTS hits)
    string(REGEX REPLACE "^add_test\\(\\[=\\[([^]]*)\\]=\\].*" "\\1" name
           "${hit}")
    message("unstable test name: ${name}")
    math(EXPR found "${found} + 1")
  endforeach()
endforeach()
if(found GREATER 0)
  message(FATAL_ERROR "${found} test names print a parameter as raw bytes; "
                      "give its type a PrintTo overload")
endif()
