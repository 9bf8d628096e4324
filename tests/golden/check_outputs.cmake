# Golden-output check: runs each deterministic bench and example in its
# own scratch directory and compares the SHA-256 of its stdout and of
# every file it writes against tests/golden/digests.txt.
#
#   cmake -DBENCH_DIR=<dir> -DEXAMPLES_DIR=<dir> -DWORK_DIR=<dir>
#         -DDIGESTS=<digests.txt> -P check_outputs.cmake
#
# A mismatch prints the line the current build produces, so a deliberate
# re-baseline is a visible edit to digests.txt.

cmake_minimum_required(VERSION 3.25)

foreach(var BENCH_DIR EXAMPLES_DIR WORK_DIR DIGESTS)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "check_outputs.cmake: -D${var}=... is required")
    endif()
    get_filename_component(${var} "${${var}}" ABSOLUTE)
endforeach()

# Expected digests: "<sha256>  <run>/<output>" per line; '#' starts a
# comment.
file(STRINGS "${DIGESTS}" golden_lines REGEX "^[0-9a-f]+  ")
set(golden_keys "")
foreach(line IN LISTS golden_lines)
    string(REGEX MATCH "^([0-9a-f]+)  (.+)$" _ "${line}")
    set("golden_${CMAKE_MATCH_2}" "${CMAKE_MATCH_1}")
    list(APPEND golden_keys "${CMAKE_MATCH_2}")
endforeach()

set(failures 0)
set(seen_keys "")

function(compare key sha)
    set(seen_keys "${seen_keys};${key}" PARENT_SCOPE)
    if(NOT DEFINED "golden_${key}")
        message("NEW     ${sha}  ${key}")
        math(EXPR n "${failures} + 1")
        set(failures ${n} PARENT_SCOPE)
    elseif(NOT "${golden_${key}}" STREQUAL "${sha}")
        message("CHANGED ${sha}  ${key}")
        math(EXPR n "${failures} + 1")
        set(failures ${n} PARENT_SCOPE)
    endif()
endfunction()

# golden_run(<run> <program> [ENV <VAR=value>...] [ARGS <arg>...]
#            [STRIP <regex>])
# Lines of stdout matching STRIP (host wall-clock readings) are dropped
# before hashing.
function(golden_run run program)
    cmake_parse_arguments(PARSE_ARGV 2 opt "" "STRIP" "ENV;ARGS")
    set(dir "${WORK_DIR}/${run}")
    file(REMOVE_RECURSE "${dir}")
    file(MAKE_DIRECTORY "${dir}")
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env ${opt_ENV} ${program} ${opt_ARGS}
        WORKING_DIRECTORY "${dir}"
        OUTPUT_FILE "${WORK_DIR}/${run}.stdout"
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message("FAILED  ${run}: exit status ${rc}\n${err}")
        math(EXPR n "${failures} + 1")
        set(failures ${n} PARENT_SCOPE)
        return()
    endif()
    if(opt_STRIP)
        file(READ "${WORK_DIR}/${run}.stdout" out)
        string(REGEX REPLACE "(^|\n)${opt_STRIP}[^\n]*" "\\1" out "${out}")
        file(WRITE "${WORK_DIR}/${run}.stdout" "${out}")
    endif()
    file(SHA256 "${WORK_DIR}/${run}.stdout" sha)
    compare("${run}/stdout" "${sha}")
    file(GLOB_RECURSE outputs RELATIVE "${dir}" "${dir}/*")
    list(SORT outputs)
    foreach(output IN LISTS outputs)
        file(SHA256 "${dir}/${output}" sha)
        compare("${run}/${output}" "${sha}")
    endforeach()
    set(failures ${failures} PARENT_SCOPE)
    set(seen_keys "${seen_keys}" PARENT_SCOPE)
endfunction()

# The sanitizer job's reduced fleet and chain sizes.
set(reduced_fleet FLEET_FUNCTIONS=120 FLEET_TENANTS=12 FLEET_RPS=240
    FLEET_DURATION_SEC=4 FLEET_MACHINES=2)
set(reduced_chain CHAIN_RUNS=4 CHAIN_FLEET_FUNCTIONS=12
    CHAIN_FLEET_DURATION_SEC=0.5)

golden_run(trace_report "${BENCH_DIR}/trace_report")
golden_run(trace_report_fleet "${BENCH_DIR}/trace_report" ARGS --fleet)
golden_run(trace_report_chain "${BENCH_DIR}/trace_report" ARGS --chain)
golden_run(scorecard "${BENCH_DIR}/scorecard" STRIP "wall-clock:")
foreach(bench fig11_startup_matrix fig12_breakdown tab02_runtime_template
        tab03_memory_costs fig_remote_fork fig_prefetch_ablation
        fig_fault_matrix ablation_keepalive)
    golden_run(${bench} "${BENCH_DIR}/${bench}")
endforeach()
golden_run(fig_image_dedup "${BENCH_DIR}/fig_image_dedup"
           ENV IMAGE_DEDUP_FUNCTIONS=160)
golden_run(fig_fleet_slo "${BENCH_DIR}/fig_fleet_slo" ENV ${reduced_fleet})
golden_run(fig_chain "${BENCH_DIR}/fig_chain" ENV ${reduced_chain})
foreach(example quickstart social_network image_service boot_storm
        cluster_scheduling)
    golden_run(${example} "${EXAMPLES_DIR}/${example}")
endforeach()

foreach(key IN LISTS golden_keys)
    if(NOT key IN_LIST seen_keys)
        message("MISSING ${golden_${key}}  ${key}")
        math(EXPR failures "${failures} + 1")
    endif()
endforeach()

if(failures GREATER 0)
    message(FATAL_ERROR "${failures} golden output(s) differ from "
            "${DIGESTS}; the lines above are what this build produces")
endif()
list(LENGTH golden_keys n)
message(STATUS "${n} golden outputs match")
