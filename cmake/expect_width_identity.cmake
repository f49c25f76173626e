# CTest helper: run ${CMD} with ${ARGS} (a ;-list) at --threads 1 and at
# --threads 4, each writing its --json report, and require both runs to
# succeed with reports that match once the `workers` field — which records
# the width by design — is dropped. Pins the bit-identical-for-any-width
# contract on whole shipped workloads.
#
#   cmake -DCMD=<exe> "-DARGS=run;--file;f.json;--horizon;300"
#         -DOUT=<path prefix for the two reports> -P expect_width_identity.cmake
foreach(threads 1 4)
    set(report_file "${OUT}.threads${threads}.json")
    execute_process(COMMAND ${CMD} ${ARGS} --threads ${threads}
                            --json ${report_file}
                    RESULT_VARIABLE exit_code
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT exit_code EQUAL 0)
        message(FATAL_ERROR
                "'${CMD} ${ARGS} --threads ${threads}' exited with"
                " '${exit_code}' (stderr: ${err})")
    endif()
    file(READ ${report_file} report)
    string(REGEX REPLACE "\"workers\": *[0-9]+" "\"workers\": -" report
           "${report}")
    set(report_${threads} "${report}")
endforeach()
if(NOT report_1 STREQUAL report_4)
    message(FATAL_ERROR
            "reports differ between --threads 1 and --threads 4 (beyond"
            " workers): compare ${OUT}.threads1.json and"
            " ${OUT}.threads4.json")
endif()
